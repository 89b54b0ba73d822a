package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, written out as
// {name, start_ns, end_ns, parent, id}. Parent is the index of the span
// that caused this one (-1 for none); spans of one shard, lease or
// window share their ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     string `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no guards.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known and returns its
// index.
func (t *tracer) add(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, ID: id,
	})
	return len(t.spans) - 1
}

// durations sums span durations per span name.
func (t *tracer) durations() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, t.spans, children[i]))
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(parent span, spans []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf folds selfTimes by layer: the span-name prefix before '.'.
func layerSelf(self map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range self {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += d
	}
	return out
}

// write saves the spans as a JSON array, one span per line.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	_, _ = w.WriteString("[\n")
	for i, s := range t.spans {
		b, err := json.Marshal(s)
		if err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
		_, _ = w.Write(b)
		if i < len(t.spans)-1 {
			_, _ = w.WriteString(",")
		}
		_, _ = w.WriteString("\n")
	}
	_, _ = w.WriteString("]\n")
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
