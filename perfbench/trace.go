package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's files.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, which
// is how the untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time child spans cover
}

// meanMS is the mean span duration in milliseconds.
func (l layerTime) meanMS() float64 {
	if l.Count == 0 {
		return 0
	}
	return l.Total.Seconds() * 1e3 / float64(l.Count)
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals.
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for id, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered(children[id]))
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	for k, v := range iv {
		if k == 0 || v[0] > hi {
			if k > 0 {
				total += hi - lo
			}
			lo, hi = v[0], v[1]
			continue
		}
		if v[1] > hi {
			hi = v[1]
		}
	}
	if len(iv) > 0 {
		total += hi - lo
	}
	return total
}

// printSelfTimes writes the per-layer self-time table, largest first.
func printSelfTimes(w io.Writer, lts map[string]*layerTime) {
	var all []*layerTime
	for _, lt := range lts {
		all = append(all, lt)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Self > all[j].Self })
	fmt.Fprintf(w, "# %-26s %8s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "mean_ms")
	for _, lt := range all {
		fmt.Fprintf(w, "# %-26s %8d %12.3f %12.3f %12.4f\n", lt.Name, lt.Count,
			lt.Total.Seconds()*1e3, lt.Self.Seconds()*1e3, lt.meanMS())
	}
}

// writeTrace saves the spans and the run's environment as JSON under
// dir, which is created if needed.
func writeTrace(dir, name string, info map[string]any, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"run": info, "spans": spans}); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
