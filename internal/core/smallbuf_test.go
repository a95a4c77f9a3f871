package core

import (
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/window"
)

// Tiny transfer buffers force every overflow/ordering corner of the
// direct-emit batched path (bursts larger than the buffer, queue
// spill-then-drain, group flushes at buffer boundaries).
func TestNextBatchTinyBuffers(t *testing.T) {
	r, s := dataset.Meteo(600, 5)
	theta := dataset.MeteoTheta()
	want := Drain(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
	for _, size := range []int{1, 2, 3, 7} {
		it := LAWAN(LAWAU(OverlapJoin(r, s, theta)))
		buf := make([]window.Window, size)
		var got []window.Window
		for {
			n := it.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: %d windows, want %d", size, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("size %d: window %d differs", size, i)
			}
		}
	}
}
