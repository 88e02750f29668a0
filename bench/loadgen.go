package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

// op is one scheduled request. ref is the pool index of a search or the
// stream index of an insert; a delete picks its victim when it is sent.
type op struct {
	kind opKind
	ref  int
	due  time.Duration // offset from the phase start; unused in closed loop
}

// sample is the outcome of one op; latency is doneAt − from. In closed loop
// from is the send time. In open loop it is the due time when the op had to
// wait for a connection, so the wait a stall imposes on the ops behind it is
// charged to them; when a connection was idle at the due time it is the
// moment the generator's timer fired, and late records how far past the due
// time that was (Go timers are a millisecond coarse on an idle process,
// which is ten times a cached reply).
type sample struct {
	op     op
	dueAt  time.Time
	from   time.Time
	doneAt time.Time
	late   time.Duration
	status int
	body   []byte
	err    error
}

func (s sample) latency() time.Duration { return s.doneAt.Sub(s.from) }

// doFunc sends one op on connection conn and returns the reply.
type doFunc func(conn int, o op) (status int, body []byte, err error)

// runOpen sends ops on an arrival schedule over conns connections: op i is
// due at start+ops[i].due and is sent then if a connection is free,
// otherwise the moment one frees.
func runOpen(ops []op, conns int, do doFunc) []sample {
	return runOps(ops, conns, do, true)
}

// runClosed has each connection send its next op when the previous reply is
// read, and returns the samples and the elapsed wall time.
func runClosed(ops []op, conns int, do doFunc) ([]sample, time.Duration) {
	start := time.Now()
	out := runOps(ops, conns, do, false)
	return out, time.Since(start)
}

func runOps(ops []op, conns int, do doFunc, paced bool) []sample {
	out := make([]sample, len(ops))
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				s := sample{op: ops[i], from: time.Now()}
				if paced {
					s.dueAt = start.Add(ops[i].due)
					if s.from.Before(s.dueAt) {
						time.Sleep(s.dueAt.Sub(s.from))
						s.from = time.Now()
						s.late = s.from.Sub(s.dueAt)
					} else {
						s.from = s.dueAt
					}
				}
				s.status, s.body, s.err = do(c, ops[i])
				s.doneAt = time.Now()
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported: below that the value is one scheduler stall away from moving.
const minTail = 10

// percentile is the nearest-rank p-th percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// guardedPercentile refuses a percentile with fewer than minTail samples
// beyond it.
func guardedPercentile(sorted []float64, p float64) (float64, error) {
	beyond := int(float64(len(sorted)) * (100 - p) / 100)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want %d", p, len(sorted), beyond, minTail)
	}
	return percentile(sorted, p), nil
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
