package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch; req identifies the packet, fleet run or job the span
// belongs to, so one operation's spans form one tree.
type span struct {
	id, parent int64
	name       string
	start, end int64
	req        int64
}

// recorder keeps a traced pass's spans in memory. Each load goroutine
// appends to its own lane, so recording takes no lock; spans are
// gathered and written out when the pass ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	lanes []*lane
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// lane is one goroutine's span buffer. A nil *lane records nothing, so
// untraced loops pay one nil check per span.
type lane struct {
	r     *recorder
	spans []span
}

// lane returns a new buffer for one goroutine; nil on a nil recorder.
func (r *recorder) lane() *lane {
	if r == nil {
		return nil
	}
	l := &lane{r: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// newID reserves a span ID, so a parent's ID is known before its
// children end. 0 on a nil lane.
func (l *lane) newID() int64 {
	if l == nil {
		return 0
	}
	return l.r.next.Add(1)
}

// add records a finished span with a reserved ID.
func (l *lane) add(id, parent int64, name string, req int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		id: id, parent: parent, name: name, req: req,
		start: int64(start.Sub(l.r.epoch)), end: int64(end.Sub(l.r.epoch)),
	})
}

// addNS records a finished span whose times are already relative to the
// recorder epoch, reserving its ID.
func (l *lane) addNS(parent int64, name string, req, start, end int64) int64 {
	if l == nil {
		return 0
	}
	id := l.newID()
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, req: req, start: start, end: end})
	return id
}

// unixNS converts a wall-clock Unix timestamp to recorder time.
func (l *lane) unixNS(unix int64) int64 { return unix - l.r.epoch.UnixNano() }

// spans returns every recorded span in ID order.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, l := range r.lanes {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]time.Duration{}
	var iv [][2]int64
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.name] += time.Duration(s.end - s.start - covered(iv))
	}
	return out
}

// covered returns the length of the union of intervals (reordered).
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the traced pass's spans as gzipped JSONL to
// <trace-out>/<workload>-seed<seed>.jsonl.gz.
func writeSpans(o options, spans []span) error {
	if o.traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl.gz", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	var b []byte
	for _, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendInt(b, s.parent, 10)
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, s.name)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"req":`...)
		b = strconv.AppendInt(b, s.req, 10)
		b = append(b, "}\n"...)
		w.Write(b)
	}
	err = w.Flush()
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(spans), path)
	return nil
}
