package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// cmdJSONOK asserts that stdin is well-formed, non-empty JSON: it must
// parse, and a top-level object or array must have at least one member. Exit
// status 0 on success, 1 (with the reason on stderr) otherwise. The smoke
// scripts pipe API responses and debug bundles through it instead of
// grepping for brace fragments.
func cmdJSONOK() {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		jsonFail("reading stdin: %v", err)
	}
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		jsonFail("invalid JSON: %v", err)
	}
	switch t := v.(type) {
	case nil:
		jsonFail("JSON is null")
	case map[string]any:
		if len(t) == 0 {
			jsonFail("JSON object is empty")
		}
	case []any:
		if len(t) == 0 {
			jsonFail("JSON array is empty")
		}
	}
}

func jsonFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jsonok: "+format+"\n", args...)
	os.Exit(1)
}
