package main

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// stallFirst answers op 0 after stall and every other op at once.
func stallFirst(stall time.Duration) doFunc {
	return func(_ int, o op) (int, []byte, error) {
		if o.ref == 0 {
			time.Sleep(stall)
		}
		return 200, nil, nil
	}
}

func tenOps(gap time.Duration) []op {
	ops := make([]op, 10)
	for i := range ops {
		ops[i] = op{ref: i, due: time.Duration(i) * gap}
	}
	return ops
}

func TestOpenLoopChargesAStallToTheOpsBehindIt(t *testing.T) {
	const stall = 300 * time.Millisecond
	samples := runOpen(tenOps(10*time.Millisecond), 1, stallFirst(stall))
	// Op 1 was due 10 ms in and could only be sent when op 0 returned.
	if got := samples[1].latency(); got < stall/2 {
		t.Errorf("open loop: op behind the stall took %v, want it charged most of the %v stall", got, stall)
	}
	if got := samples[9].latency(); got < stall/2 {
		t.Errorf("open loop: last op took %v, want the backlog still charged from its due time", got)
	}
	for i, s := range samples[1:] {
		if !s.from.Equal(s.dueAt) {
			t.Errorf("op %d waited for the connection but is timed from %v, not its due time %v", i+1, s.from, s.dueAt)
		}
	}
}

func TestClosedLoopDoesNotChargeAStallToLaterOps(t *testing.T) {
	const stall = 300 * time.Millisecond
	samples, elapsed := runClosed(tenOps(0), 1, stallFirst(stall))
	if got := samples[0].latency(); got < stall {
		t.Errorf("stalled op took %v, want at least %v", got, stall)
	}
	for i, s := range samples[1:] {
		if got := s.latency(); got > stall/2 {
			t.Errorf("closed loop: op %d took %v, want the stall left out", i+1, got)
		}
	}
	if elapsed < stall {
		t.Errorf("elapsed %v is shorter than the stall", elapsed)
	}
}

func TestOpenLoopIdleConnectionIsTimedFromTheSend(t *testing.T) {
	samples := runOpen(tenOps(5*time.Millisecond), 2, stallFirst(0))
	for i, s := range samples[1:] {
		if s.from.Before(s.dueAt) {
			t.Errorf("op %d sent at %v, before it was due at %v", i+1, s.from, s.dueAt)
		}
		if s.late != s.from.Sub(s.dueAt) {
			t.Errorf("op %d: late %v, want %v", i+1, s.late, s.from.Sub(s.dueAt))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestGuardedPercentileWantsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	if _, err := guardedPercentile(sorted, 90); err != nil {
		t.Errorf("p90 of 100 samples has ten beyond it: %v", err)
	}
	if _, err := guardedPercentile(sorted, 95); err == nil {
		t.Error("p95 of 100 samples has five beyond it and was not refused")
	}
	if _, err := guardedPercentile(sorted[:19], 50); err == nil {
		t.Error("p50 of 19 samples has nine beyond it and was not refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
	if got := median([]float64{4, 1, 9, 2}); got != 3 {
		t.Errorf("median of four = %g, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// planned returns the schedules wl gets from seed, and the request bytes in
// arrival order.
func planned(t *testing.T, in *inputs, wl workload, seed int64) ([]round, []byte) {
	t.Helper()
	r := &run{cfg: runConfig{seed: seed, seconds: 5}, wl: wl, in: in, rng: rand.New(rand.NewSource(seed))}
	r.plan()
	var stream bytes.Buffer
	for _, rd := range r.rounds {
		for _, o := range rd.open {
			switch o.kind {
			case opSearch:
				stream.Write(in.pool[o.ref].body)
			case opInsert:
				stream.Write(r.insertBodies[o.ref])
			}
		}
	}
	return r.rounds, stream.Bytes()
}

func TestSameSeedSameTrafficDifferentSeedDifferent(t *testing.T) {
	in, err := makeInputs(0.02)
	if err != nil {
		t.Fatal(err)
	}
	again, err := makeInputs(0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.pool {
		if !bytes.Equal(in.pool[i].body, again.pool[i].body) {
			t.Fatalf("request %d differs between two generations of the pool", i)
		}
	}
	for _, wl := range workloads {
		rounds1, bytes1 := planned(t, in, wl, 7)
		rounds2, bytes2 := planned(t, again, wl, 7)
		if len(rounds1) != 2 || !reflect.DeepEqual(rounds1, rounds2) || !bytes.Equal(bytes1, bytes2) {
			t.Errorf("%s: seed 7 planned twice gives different traffic", wl.name)
		}
		rounds3, bytes3 := planned(t, in, wl, 8)
		if reflect.DeepEqual(rounds1, rounds3) || bytes.Equal(bytes1, bytes3) {
			t.Errorf("%s: seeds 7 and 8 give the same traffic", wl.name)
		}
	}
}

func TestInterleaveKeepsEachSessionInOrder(t *testing.T) {
	order := interleave(rand.New(rand.NewSource(3)))
	if len(order) != numSessions*sessionLen {
		t.Fatalf("%d slots, want %d", len(order), numSessions*sessionLen)
	}
	next := make([]int, numSessions)
	for _, ref := range order {
		s, step := ref/sessionLen, ref%sessionLen
		if step != next[s] {
			t.Fatalf("session %d step %d arrived when step %d was due", s, step, next[s])
		}
		next[s]++
	}
}
