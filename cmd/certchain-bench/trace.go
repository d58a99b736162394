package main

import (
	"os"
	"sort"
	"sync"
	"time"

	"certchains/internal/obs"
)

// noParent marks a root span.
const noParent = -1

// tracer records a span around each call into a layer, from the benchmark's
// side of the call. Spans stay in memory until the child exits. They go to
// an obs.Tracer (whose Chrome trace obs-check validates) with the parent's
// id and the repetition as span arguments, and are kept here as well,
// because self times need the intervals obs.Span does not expose.
//
// A nil *tracer is the untraced run: start and end do nothing.
type tracer struct {
	rep int64
	tr  *obs.Tracer

	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Time
	exported   *obs.Span
}

func newTracer(rep int) *tracer {
	return &tracer{rep: int64(rep), tr: obs.NewTracer()}
}

// start opens a span named after the layer's call ("zeek.fastjoin") under
// stage layer ("zeek") and returns its id.
func (t *tracer) start(layer, name string, parent int) int {
	return t.startOn(0, layer, name, parent)
}

// startOn is start on a trace track of its own, for spans that run beside
// the main sequence (a reader goroutine, the loader).
func (t *tracer) startOn(track int, layer, name string, parent int) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	exported := t.tr.Start(layer, name).SetTID(track).
		Arg("id", int64(id)).Arg("parent", int64(parent)).Arg("rep", t.rep)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now(), exported: exported})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Now()
	t.spans[id].exported.End()
}

// selfTimes returns, by span name, the summed self time under root: each
// span's duration minus the part of it its children cover. uncovered is the
// root's own self time — what no layer span accounts for.
func (t *tracer) selfTimes(root int) (byName map[string]time.Duration, wall, uncovered time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for id, s := range t.spans {
		children[s.parent] = append(children[s.parent], id)
	}
	byName = make(map[string]time.Duration)
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id]
		self := s.end.Sub(s.start) - covered(t.spans, children[id], s)
		byName[s.name] += self
		if id == root {
			uncovered = self
		}
		for _, c := range children[id] {
			walk(c)
		}
	}
	walk(root)
	return byName, t.spans[root].end.Sub(t.spans[root].start), uncovered
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(spans []span, ids []int, parent span) time.Duration {
	sort.Slice(ids, func(i, j int) bool { return spans[ids[i]].start.Before(spans[ids[j]].start) })
	var total time.Duration
	at := parent.start
	for _, id := range ids {
		lo, hi := spans[id].start, spans[id].end
		if lo.Before(at) {
			lo = at
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			total += hi.Sub(lo)
			at = hi
		}
	}
	return total
}

func (t *tracer) writeChromeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
