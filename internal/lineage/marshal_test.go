package lineage

import (
	"bytes"
	"runtime"
	"testing"
)

// frameSizeCrash is a lineage frame header claiming 2^62 payload bytes
// with no payload; it used to panic in make([]byte, size).
const frameSizeCrash = "\x80\x80\x80\x80\x80\x80\x80\x80\x40"

func TestDecodeRejectsOversizedFrame(t *testing.T) {
	if e, err := NewDecoder(bytes.NewReader([]byte(frameSizeCrash))).Decode(); err == nil {
		t.Fatalf("oversized frame must fail, decoded %v", e)
	}
}

// TestDecodeAllocationBoundedByInput pins that a frame claiming 1 GiB but
// backed by three bytes is rejected without allocating anything near the
// claimed size.
func TestDecodeAllocationBoundedByInput(t *testing.T) {
	in := append(appendUvarint(nil, 1<<30), 0x02, 0x00, 0x01)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewDecoder(bytes.NewReader(in)).Decode(); err == nil {
		t.Fatal("truncated frame must fail")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding a 3-byte truncated frame allocated %d bytes", got)
	}
}

// FuzzLineageDecode asserts the lineage decoder never panics on arbitrary
// input, and that every expression it accepts re-encodes to a stream
// that decodes equal. The input is decoded as a stream of expressions
// sharing one name dictionary, as catalog's binary format uses it. Run
// with
//
//	go test -fuzz=FuzzLineageDecode ./internal/lineage
//
// Under plain `go test` the seed corpus alone is exercised.
func FuzzLineageDecode(f *testing.F) {
	for _, es := range [][]*Expr{
		{NewVar("a", 1)},
		{And(NewVar("a", 1), Not(Or(NewVar("b", 3), NewVar("b", 2)))), NewVar("b", 7)},
		{True(), False(), Or(NewVar("rel-x", 0), And(NewVar("a", 4), NewVar("rel-x", 9)))},
	} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, e := range es {
			if err := enc.Encode(e); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(frameSizeCrash))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		var got []*Expr
		for {
			e, err := dec.Decode()
			if err != nil {
				break
			}
			got = append(got, e)
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, e := range got {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("re-encoding accepted expression %v: %v", e, err)
			}
		}
		dec = NewDecoder(&buf)
		for i, want := range got {
			e, err := dec.Decode()
			if err != nil {
				t.Fatalf("re-encoded expression %d does not decode: %v", i, err)
			}
			if !e.Equal(want) {
				t.Fatalf("expression %d changed in the round trip: %v vs %v", i, e, want)
			}
		}
	})
}
