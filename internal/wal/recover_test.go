package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeLog fills dir with n one-record segments (seqs 1..n, one byte each).
func writeLog(t *testing.T, dir string, n int) {
	t.Helper()
	l, err := Open(Options{Dir: dir, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		appendCommitted(t, l, 1, []byte{byte(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecover drives the recovery protocol every durable owner shares over
// the directory states it has to tell apart.
func TestRecover(t *testing.T) {
	errApply := errors.New("apply refused")
	cases := []struct {
		name    string
		prepare func(t *testing.T, dir string)
		after   uint64
		apply   func(Record) error
		wantErr error
		want    Recovery
		applied []uint64 // seqs apply must see, in order
	}{
		{name: "empty directory",
			prepare: func(*testing.T, string) {},
			want:    Recovery{}},
		{name: "replays everything past the snapshot",
			prepare: func(t *testing.T, dir string) { writeLog(t, dir, 5) },
			after:   2,
			want:    Recovery{SnapshotSeq: 2, Replayed: 3, LastSeq: 5},
			applied: []uint64{3, 4, 5}},
		{name: "log fully absorbed by the snapshot",
			prepare: func(t *testing.T, dir string) { writeLog(t, dir, 3) },
			after:   3,
			want:    Recovery{SnapshotSeq: 3, LastSeq: 3}},
		{name: "log pruned to nothing resumes after the snapshot",
			prepare: func(*testing.T, string) {},
			after:   7,
			want:    Recovery{SnapshotSeq: 7, LastSeq: 7}},
		{name: "snapshot claims more than a non-empty log holds",
			prepare: func(t *testing.T, dir string) { writeLog(t, dir, 3) },
			after:   5,
			wantErr: ErrCorrupt},
		{name: "gap between the snapshot and the first surviving record",
			prepare: func(t *testing.T, dir string) {
				writeLog(t, dir, 5)
				l, err := Open(Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				defer l.Close()
				if err := l.Prune(3); err != nil { // leaves records 4 and 5
					t.Fatal(err)
				}
			},
			after:   2,
			wantErr: ErrCorrupt},
		{name: "apply error aborts",
			prepare: func(t *testing.T, dir string) { writeLog(t, dir, 3) },
			apply: func(r Record) error {
				if r.Seq == 2 {
					return errApply
				}
				return nil
			},
			wantErr: errApply},
		{name: "torn tail is reported and repaired",
			prepare: func(t *testing.T, dir string) {
				writeLog(t, dir, 4)
				last := filepath.Join(dir, segName(4))
				raw, err := os.ReadFile(last)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(last, raw[:len(raw)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want:    Recovery{Replayed: 3, LastSeq: 3, Torn: true, TornSegment: segName(4)},
			applied: []uint64{1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "log")
			tc.prepare(t, dir)
			before, _ := os.ReadDir(dir)
			var applied []uint64
			s, rec, err := Recover(Options{Dir: dir}, tc.after, func(r Record) error {
				if tc.apply != nil {
					if err := tc.apply(r); err != nil {
						return err
					}
				}
				applied = append(applied, r.Seq)
				return nil
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || s != nil {
					t.Fatalf("Recover = (%v, %v), want no stream and %v", s, err, tc.wantErr)
				}
				// Nothing opened: the directory is as the crash left it.
				if now, _ := os.ReadDir(dir); len(now) != len(before) {
					t.Fatalf("a failed recovery changed the directory: %d entries, was %d", len(now), len(before))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if rec != tc.want {
				t.Fatalf("recovery %+v, want %+v", rec, tc.want)
			}
			if !slices.Equal(applied, tc.applied) {
				t.Fatalf("applied %v, want %v", applied, tc.applied)
			}
			if got := s.LastSeq(); got != tc.want.LastSeq {
				t.Fatalf("stream LastSeq %d, recovery says %d", got, tc.want.LastSeq)
			}
			// The next record lands directly after what was recovered, and a
			// second recovery sees it there with no tear left behind.
			c, err := s.Log(9, func(b []byte) []byte { return append(b, "next"...) })
			if err == nil {
				err = c.Wait()
			}
			if err != nil || c.Seq != tc.want.LastSeq+1 {
				t.Fatalf("next Log = seq %d, %v; want seq %d", c.Seq, err, tc.want.LastSeq+1)
			}
			s.Close()
			var last Record
			s2, rec2, err := Recover(Options{Dir: dir}, tc.want.LastSeq, func(r Record) error {
				last = Record{Seq: r.Seq, Kind: r.Kind, Data: append([]byte(nil), r.Data...)}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			s2.Close()
			if rec2.Replayed != 1 || rec2.Torn || last.Seq != c.Seq || last.Kind != 9 || string(last.Data) != "next" {
				t.Fatalf("second recovery %+v replayed %+v, want exactly the one new record", rec2, last)
			}
		})
	}
}

// TestRecoverNilStream pins the volatile contract: every Stream method is
// usable on a nil receiver and does nothing, so owners never ask whether they
// are durable.
func TestRecoverNilStream(t *testing.T) {
	var s *Stream
	c, err := s.Log(1, func([]byte) []byte {
		t.Fatal("a nil Stream encoded a record body")
		return nil
	})
	if err != nil || c != (Commit{}) {
		t.Fatalf("Log on a nil Stream = (%+v, %v), want the zero Commit", c, err)
	}
	if err := c.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := s.LastSeq(); got != 0 {
		t.Fatalf("LastSeq = %d", got)
	}
	if err := s.Prune(10); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
