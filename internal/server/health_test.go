package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"activitytraj/internal/dataset"
	"activitytraj/internal/delta"
	"activitytraj/internal/faultfs"
	"activitytraj/internal/shard"
	"activitytraj/internal/trajectory"
)

func healthDataset(t *testing.T) *trajectory.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Name:            "health",
		Seed:            11,
		NumTrajectories: 120,
		NumVenues:       200,
		VocabSize:       80,
		RegionW:         30,
		RegionH:         30,
		Clusters:        4,
		TrajLenMean:     8,
		TrajLenStd:      3,
	})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	return ds
}

func getHealth(t *testing.T, ts *httptest.Server) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	return resp.StatusCode, body
}

// TestHealthzDegradesOnCompactionFailure: a shard whose background
// compaction fails must flip /healthz to 503 with the failure surfaced,
// so load balancers route away from a server serving a wedged shard.
func TestHealthzDegradesOnCompactionFailure(t *testing.T) {
	ds := healthDataset(t)
	// The first rename is the fresh open's router.json commit; the second is
	// the first compaction's snapshot commit — failing it makes CompactNow
	// error out on the background path, which records LastCompactErr.
	ffs := faultfs.New(nil, faultfs.Plan{CrashOnRename: 2})
	r, _, err := shard.OpenOrCreate(ds, shard.Config{
		Shards: 2,
		// Threshold 1: the very first insert triggers background compaction.
		Delta:      delta.Config{CompactThreshold: 1},
		Durability: delta.Durability{Dir: t.TempDir(), FS: ffs},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s := New(r, Options{Workers: 1, Vocab: ds.Vocab})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := getHealth(t, ts); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthy server: status %d body %v", code, body)
	}

	// The insert itself may fail if the injected crash latches before the
	// routing journal commits; either way the background compaction must
	// record its failure.
	_, _ = r.Insert(trajectory.Trajectory{Pts: ds.Trajs[0].Pts})
	deadline := time.Now().Add(5 * time.Second)
	for {
		degraded := false
		for _, ss := range r.Stats().PerShard {
			degraded = degraded || ss.CompactErr != ""
		}
		if degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard recorded a compaction failure")
		}
		time.Sleep(5 * time.Millisecond)
	}

	code, body := getHealth(t, ts)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz status = %d, want 503 (body %v)", code, body)
	}
	if body["status"] != "compaction-failed" {
		t.Fatalf("degraded healthz body = %v", body)
	}
	errs, ok := body["compact_errors"].(map[string]any)
	if !ok || len(errs) == 0 {
		t.Fatalf("healthz did not surface the compaction error: %v", body)
	}
}

// TestHealthzReportsRecovery: a server booted from a recovered data
// directory reports the replay summary on /healthz.
func TestHealthzReportsRecovery(t *testing.T) {
	ds := healthDataset(t)
	cfg := shard.Config{
		Shards:     2,
		Delta:      delta.Config{CompactThreshold: -1},
		Durability: delta.Durability{Dir: t.TempDir()},
	}
	r, _, err := shard.OpenOrCreate(ds, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := r.Insert(trajectory.Trajectory{Pts: ds.Trajs[i].Pts}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, ri, err := shard.OpenOrCreate(ds, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer r2.Close()
	s := New(r2, Options{Workers: 1, Vocab: ds.Vocab, Recovery: &ri})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := getHealth(t, ts)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("recovered healthz: status %d body %v", code, body)
	}
	rec, ok := body["recovery"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing recovery summary: %v", body)
	}
	if replayed, _ := rec["JournalReplayed"].(float64); replayed != 5 {
		t.Fatalf("recovery.JournalReplayed = %v, want 5 (%v)", rec["JournalReplayed"], rec)
	}
}

// TestWriteErrorSanitizesServerFaults: 5xx bodies must not echo internal
// error strings to network clients — the detail goes to the server log —
// while 4xx bodies keep their actionable message verbatim.
func TestWriteErrorSanitizesServerFaults(t *testing.T) {
	s, _ := testServer(t, 2)
	var logged bytes.Buffer
	s.errlog = log.New(&logged, "", 0)

	rec := httptest.NewRecorder()
	s.WriteError(rec, http.StatusInternalServerError, errors.New("shard-003: /var/db/wal-007.seg exploded"))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(e.Error, "exploded") || strings.Contains(e.Error, "wal-007") {
		t.Fatalf("500 body leaked internal detail: %q", e.Error)
	}
	if e.Error != http.StatusText(http.StatusInternalServerError) {
		t.Fatalf("500 body = %q, want the generic status text", e.Error)
	}
	if !strings.Contains(logged.String(), "wal-007.seg exploded") {
		t.Fatalf("server log lost the fault detail: %q", logged.String())
	}

	rec = httptest.NewRecorder()
	s.WriteError(rec, http.StatusBadRequest, errors.New("point 3: non-finite coordinates"))
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error != "point 3: non-finite coordinates" {
		t.Fatalf("400 body = %q, want the verbatim message", e.Error)
	}
}
