package catalog

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"tpjoin/internal/core"
	"tpjoin/internal/tp"
)

// Untrusted-input pins for the binary loader: corrupt length counts and
// out-of-range probabilities must come back as errors, never as panics or
// as loaded relations.

// attrCountCrash is "TPR1", an empty name, then an attribute count of
// 2^62 (uvarint); it used to panic in make([]string, nAttrs).
const attrCountCrash = "TPR1\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40"

// lineageFrameCrash is a one-tuple relation with no attributes whose
// lineage frame claims 2^62 bytes; it used to panic in the lineage
// decoder's make([]byte, size).
const lineageFrameCrash = "TPR1\x00\x00\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\xe0\x3f" +
	"\x80\x80\x80\x80\x80\x80\x80\x80\x40"

func readBinaryString(s string) (*tp.Relation, error) {
	return ReadBinary(bufio.NewReader(strings.NewReader(s)))
}

func TestReadBinaryRejectsImplausibleCounts(t *testing.T) {
	for name, in := range map[string]string{"attrs": attrCountCrash, "lineage frame": lineageFrameCrash} {
		if _, err := readBinaryString(in); err == nil {
			t.Errorf("%s: corrupt count must fail", name)
		}
	}
}

func writeBinaryString(t testing.TB, rel *tp.Relation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, rel); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.String()
}

func TestReadBinaryRejectsBadProbabilities(t *testing.T) {
	a, _ := paperRelations()
	for v := range a.Probs {
		a.Probs[v] = 7.5
		break
	}
	_, err := readBinaryString(writeBinaryString(t, a))
	if err == nil || !strings.Contains(err.Error(), "base event") {
		t.Errorf("base-event probability 7.5 must fail naming the event, got %v", err)
	}

	a, _ = paperRelations()
	a.Tuples[1].Prob = math.NaN()
	_, err = readBinaryString(writeBinaryString(t, a))
	if err == nil || !strings.Contains(err.Error(), "tuple 1") {
		t.Errorf("tuple probability NaN must fail naming the tuple, got %v", err)
	}
}

// FuzzReadBinary asserts the binary loader never panics on arbitrary
// input, and that whatever it accepts re-encodes to bytes that load back
// to the same encoding (byte equality of the re-encodings is the
// NaN-safe notion of "decodes equal"). Run with
//
//	go test -fuzz=FuzzReadBinary ./internal/catalog
//
// Under plain `go test` the seed corpus alone is exercised.
func FuzzReadBinary(f *testing.F) {
	a, b := paperRelations()
	for _, rel := range []*tp.Relation{a, b, core.LeftOuterJoin(a, b, tp.Equi(1, 1))} {
		f.Add([]byte(writeBinaryString(f, rel)))
	}
	f.Add([]byte(attrCountCrash))
	f.Add([]byte(lineageFrameCrash))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := readBinaryString(string(data))
		if err != nil {
			return
		}
		once := writeBinaryString(t, rel)
		again, err := readBinaryString(once)
		if err != nil {
			t.Fatalf("re-encoded relation does not load: %v", err)
		}
		if twice := writeBinaryString(t, again); once != twice {
			t.Fatalf("round trip changed the relation:\n%x\n%x", once, twice)
		}
	})
}

// FuzzReadCSV fuzzes the CSV loader, the other untrusted-input path:
// ReadCSV must never panic, and an accepted input written back through
// WriteCSV must load again to the same attributes, facts, intervals and
// probabilities. Run with
//
//	go test -fuzz=FuzzReadCSV ./internal/catalog
//
// Under plain `go test` the seed corpus alone is exercised.
func FuzzReadCSV(f *testing.F) {
	a, b := paperRelations()
	for _, rel := range []*tp.Relation{a, b} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("K,Tstart,Tend,P\n\"x,\"\"y\"\"\r\nz\",1,5,0.5\n"))
	f.Add([]byte("K,Tstart,Tend,P\nx,-9223372036854775808,9223372036854775807,5e-324\n"))
	f.Add([]byte("K,Tstart,Tend,P\nx,1,5,NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := ReadCSV(bytes.NewReader(data), "f")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, rel); err != nil {
			t.Fatalf("WriteCSV of an accepted relation: %v", err)
		}
		again, err := ReadCSV(&buf, "f")
		if err != nil {
			t.Fatalf("written relation does not load: %v\n%q", err, buf.String())
		}
		if !slices.Equal(again.Attrs, rel.Attrs) || again.Len() != rel.Len() {
			t.Fatalf("round trip changed the shape: %q/%d tuples, then %q/%d tuples",
				rel.Attrs, rel.Len(), again.Attrs, again.Len())
		}
		for i := range rel.Tuples {
			w, g := &rel.Tuples[i], &again.Tuples[i]
			if !g.Fact.Equal(w.Fact) || !g.T.Equal(w.T) || g.Prob != w.Prob {
				t.Fatalf("tuple %d: round trip changed %v %v %v into %v %v %v",
					i, w.Fact, w.T, w.Prob, g.Fact, g.T, g.Prob)
			}
		}
	})
}
