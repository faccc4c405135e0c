package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"

	"optimus/internal/serve"
	"optimus/internal/wal"
)

// walLine is one dumped record: the frame header plus the decoded payload.
type walLine struct {
	Seq     uint64 `json:"seq"`
	Type    string `json:"type"`
	Payload any    `json:"payload,omitempty"`
}

// cmdWAL dumps an optimusd write-ahead log directory as one JSON object per
// record, newline-delimited, followed by a scan summary on stderr. The dump
// is read-only — a torn tail is reported, never repaired — so it is safe to
// point at a live leader's log.
func cmdWAL(args []string) {
	if len(args) < 1 || len(args[0]) > 0 && args[0][0] == '-' {
		usage()
	}
	dir := args[0]
	fs := flag.NewFlagSet("wal", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	raw := fs.Bool("raw", false, "emit payloads as logged (JSON verbatim, binary as base64) instead of decoding")
	if err := fs.Parse(args[1:]); err != nil {
		lg.Fatalf("%v", err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	res, err := wal.Scan(dir, func(r wal.Record) error {
		line := walLine{Seq: r.Seq, Type: r.Type.String()}
		if *raw {
			line.Payload = rawPayload(r.Payload)
		} else if p, err := serve.WALDecodePayload(r); err != nil {
			// Unknown or malformed payloads still dump (the frame CRC
			// already vouched for the bytes); fall back to the raw bytes.
			line.Payload = rawPayload(r.Payload)
		} else {
			line.Payload = p
		}
		return enc.Encode(line)
	})
	if err != nil {
		lg.Fatalf("%v", err)
	}
	if err := bw.Flush(); err != nil {
		lg.Fatalf("%v", err)
	}
	lg.Infof("%d records, last seq %d", res.Records, res.LastSeq)
	if res.Torn {
		lg.Infof("torn tail in %s at offset %d (next writer open will truncate it)",
			res.TornSegment, res.TornOffset)
	}
	if ckpt, err := wal.LastCheckpoint(dir); err == nil && ckpt > 0 {
		lg.Infof("latest checkpoint anchor: seq %d", ckpt)
	}
}

// rawPayload is a payload as logged: JSON verbatim, anything else (the
// binary observe and deploy layouts) as a base64 string.
func rawPayload(b []byte) any {
	if json.Valid(b) {
		return json.RawMessage(b)
	}
	return b
}
