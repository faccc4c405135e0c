package serve

import (
	"bytes"
	"testing"
)

// FuzzDecodeSubmit fuzzes the job-submission request decoder: it must never
// panic, and anything it accepts must satisfy the documented invariants
// (known model, valid mode, threshold/downscale in range).
func FuzzDecodeSubmit(f *testing.F) {
	for _, seed := range []string{
		`{"model":"resnet-50","mode":"async"}`,
		`{"model":"resnext-110","mode":"sync","threshold":0.02,"downscale":0.5}`,
		`{"model":"seq2seq","mode":"sync","threshold":0.5}`,
		`{"model":"","mode":""}`,
		`{"model":"resnet-50","mode":"async","threshold":-1}`,
		`{"model":"resnet-50","mode":"async","unknown":true}`,
		`{}`,
		`[]`,
		`null`,
		``,
		`{"model":"resnet-50","mode":"async"}{"model":"x"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSubmit(data)
		if err != nil {
			return
		}
		spec, specErr := req.spec()
		if specErr != nil {
			t.Fatalf("DecodeSubmit accepted %q but spec() rejects: %v", data, specErr)
		}
		if spec.Model == nil {
			t.Fatalf("accepted request %q has nil model", data)
		}
		if spec.Threshold <= 0 || spec.Threshold > 0.5 {
			t.Fatalf("accepted threshold %g out of range (%q)", spec.Threshold, data)
		}
		if spec.Downscale <= 0 || spec.Downscale > 1 {
			t.Fatalf("accepted downscale %g out of range (%q)", spec.Downscale, data)
		}
	})
}

// FuzzWALPayload fuzzes the binary observe and deploy decoders: arbitrary
// bytes never panic either one, and every payload that decodes re-encodes
// to the same bytes (so no two payloads decode to the same record).
func FuzzWALPayload(f *testing.F) {
	for _, p := range observeCases {
		f.Add(p.appendTo(nil))
	}
	for _, p := range deployCases[:2] {
		b, _ := p.appendTo(nil)
		f.Add(b)
	}
	f.Add([]byte(`{"id":1,"prog":0.5}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var o walObserve
		if o.decode(data) == nil {
			if b := o.appendTo(nil); !bytes.Equal(b, data) {
				t.Fatalf("observe % x re-encodes to % x", data, b)
			}
		}
		var d walDeploy
		if d.decode(data) == nil {
			b, err := d.appendTo(nil)
			if err != nil || !bytes.Equal(b, data) {
				t.Fatalf("deploy % x re-encodes to % x (%v)", data, b, err)
			}
		}
	})
}
