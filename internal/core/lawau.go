package core

import (
	"tpjoin/internal/interval"
	"tpjoin/internal/window"
)

// LAWAU (Lineage-Aware Window Advancer, Unmatched) extends the output of
// the overlap join with the remaining unmatched windows: the maximal
// subintervals of each r tuple's validity interval during which no tuple
// of s is valid or satisfies θ (paper, Section III-B, Fig. 3).
//
// The input stream must be grouped by r tuple (Window.RID) with each
// group's overlapping windows sorted by starting point — exactly the order
// OverlapJoin produces. LAWAU performs a single sweep over each group:
// it copies every input window to the output and, tracking the maximal
// covered end point, emits an unmatched window for every gap between
// consecutive overlapping windows as well as for the uncovered head and
// tail of the tuple's interval. Windows stream through with O(1) state per
// group; no tuple is replicated.
type lawau struct {
	in  Iterator
	out queue

	// Input state: the sweep pulls its own input in pooled batches, so
	// windows hop the whole pipeline BatchSize at a time.
	inBuf      *[]window.Window
	inPos, inN int

	inGroup bool
	rid     int
	rt      interval.Interval
	frLr    window.Window // carries Fr/Lr of the current group for gap windows
	maxEnd  interval.Time
	sawBase bool // group consists of a base unmatched window (no matches at all)
	done    bool
}

// LAWAU returns the unmatched-window sweep over in. See the package
// documentation for the required input order.
func LAWAU(in Iterator) Iterator { return &lawau{in: in} }

func (l *lawau) releaseBuf() {
	if l.inBuf != nil {
		putBatchBuf(l.inBuf)
		l.inBuf = nil
	}
	l.inPos, l.inN = 0, 0
}

// consumeInto folds one input window into the sweep state. Output windows
// are written to buf[n:] while space remains (and the queue is empty,
// preserving order) and overflow onto the queue. Returns the new fill
// count.
func (l *lawau) consumeInto(w *window.Window, buf []window.Window, n int) int {
	if !l.inGroup || w.RID != l.rid {
		n = l.flushInto(buf, n)
		l.startGroup(w)
	}
	if w.Class() == window.Unmatched {
		// Base unmatched window from the overlap join: the r tuple has no
		// match at all; its window already spans the whole interval.
		l.sawBase = true
		return l.emitInto(w, buf, n)
	}
	// Case analysis of Fig. 3: a gap exists iff the next overlapping
	// window starts after the covered prefix ends.
	if w.T.Start > l.maxEnd {
		g := l.gap(l.maxEnd, w.T.Start)
		n = l.emitInto(&g, buf, n)
	}
	n = l.emitInto(w, buf, n)
	if w.T.End > l.maxEnd {
		l.maxEnd = w.T.End
	}
	return n
}

func (l *lawau) emitInto(w *window.Window, buf []window.Window, n int) int {
	if n < len(buf) && l.out.empty() {
		buf[n] = *w
		return n + 1
	}
	l.out.push(*w)
	return n
}

// NextBatch implements Iterator: input windows are pulled in pooled
// batches and swept a batch at a time. At end of input the last group's
// tail gap is flushed.
func (l *lawau) NextBatch(buf []window.Window) int {
	n := l.out.popInto(buf)
	for n < len(buf) {
		if l.done {
			return n
		}
		if l.inPos == l.inN {
			if l.inBuf == nil {
				l.inBuf = getBatchBuf()
			}
			l.inN = l.in.NextBatch(*l.inBuf)
			l.inPos = 0
			if l.inN == 0 {
				n = l.flushInto(buf, n)
				l.done = true
				l.releaseBuf()
				return n + l.out.popInto(buf[n:])
			}
		}
		for l.inPos < l.inN {
			n = l.consumeInto(&(*l.inBuf)[l.inPos], buf, n)
			l.inPos++
		}
		n += l.out.popInto(buf[n:])
	}
	return n
}

func (l *lawau) startGroup(w *window.Window) {
	l.inGroup = true
	l.rid = w.RID
	l.rt = w.RT
	l.frLr = *w
	l.maxEnd = w.RT.Start
	l.sawBase = false
}

// flushInto emits the tail gap of the group being closed, if any.
func (l *lawau) flushInto(buf []window.Window, n int) int {
	if !l.inGroup || l.sawBase {
		return n
	}
	if l.maxEnd < l.rt.End {
		g := l.gap(l.maxEnd, l.rt.End)
		n = l.emitInto(&g, buf, n)
	}
	return n
}

func (l *lawau) gap(start, end interval.Time) window.Window {
	return window.Window{
		Fr: l.frLr.Fr, T: interval.Interval{Start: start, End: end},
		Lr: l.frLr.Lr, RID: l.rid, RT: l.rt,
	}
}
