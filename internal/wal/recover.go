package wal

import "fmt"

// Recovery describes what Recover rebuilt: Replayed records applied on top of
// SnapshotSeq (Recover's after argument — what the owner's snapshot already
// held, 0 for the bootstrap state), resuming after LastSeq. Torn reports that
// the log ended in a torn tail (the signature of a crash mid-append) which
// recovery truncated; TornSegment names the segment.
type Recovery struct {
	SnapshotSeq uint64
	Replayed    int64
	LastSeq     uint64
	Torn        bool
	TornSegment string
}

// Stream is one durable owner's mutation stream (a delta index, a shard
// router's journal, a cluster node): the log Recover opened, narrowed to
// log-before-apply. A nil *Stream is the volatile owner — Log returns a
// Commit that waits for nothing, LastSeq is 0, Prune and Close do nothing —
// so mutation paths are written once, without an "is this durable" fork.
type Stream struct {
	log *Log
	buf []byte // record-encoding scratch, guarded by the owner's lock like Log
}

// Commit is one logged record's durability handle.
type Commit struct {
	log *Log
	Seq uint64 // the record's sequence number; 0 from a nil Stream
}

// Recover is the one recovery protocol: replay opts.Dir through apply, then
// open the log for appending where the replay ended. Records at or below
// after (what the owner's snapshot holds) are skipped; each later one must
// continue the sequence exactly — a gap is ErrCorrupt, replaying around it
// would apply mutations out of order — and goes to apply, whose error aborts
// the recovery with nothing opened. A torn tail is reported and repaired.
func Recover(opts Options, after uint64, apply func(Record) error) (*Stream, Recovery, error) {
	rec := Recovery{SnapshotSeq: after, LastSeq: after}
	// Replay is read-only and tolerates a torn tail (and a missing
	// directory) itself, so the tear is observed before Open repairs it.
	info, err := Replay(opts.FS, opts.Dir, func(r Record) error {
		if r.Seq <= after {
			return nil
		}
		if r.Seq != rec.LastSeq+1 {
			return fmt.Errorf("%w: record seq %d does not continue seq %d", ErrCorrupt, r.Seq, rec.LastSeq)
		}
		if err := apply(r); err != nil {
			return err
		}
		rec.LastSeq = r.Seq
		rec.Replayed++
		return nil
	})
	if err != nil {
		return nil, rec, err
	}
	rec.Torn, rec.TornSegment = info.Torn, info.TornSegment
	// FirstSeq re-seeds numbering when the snapshot absorbed and pruned the
	// whole log: without it an empty log would restart at seq 1 and the NEXT
	// recovery would silently skip every new record at or below after.
	opts.FirstSeq = rec.LastSeq + 1
	l, err := Open(opts)
	if err != nil {
		return nil, rec, err
	}
	if got := l.LastSeq(); got != rec.LastSeq {
		l.Close()
		return nil, rec, fmt.Errorf("%w: log resumes at seq %d but replay recovered %d", ErrCorrupt, got+1, rec.LastSeq)
	}
	return &Stream{log: l}, rec, nil
}

// Log appends one record; encode appends its body to the scratch slice it is
// given (a nil Stream never calls it). Call Log under the owner's mutation
// lock, BEFORE the in-memory apply: what the log rejects never reaches
// memory, so the on-disk stream is a superset of the in-memory state and
// recovery, replaying a prefix of it, cannot miss an acknowledged write.
func (s *Stream) Log(kind uint8, encode func(dst []byte) []byte) (Commit, error) {
	if s == nil {
		return Commit{}, nil
	}
	s.buf = encode(s.buf[:0])
	seq, err := s.log.Append(kind, s.buf)
	return Commit{log: s.log, Seq: seq}, err
}

// Wait blocks until the record is durable under the sync policy (see
// (*Log).Commit). Call it holding no lock, so concurrent writers share
// fsyncs; an error means applied but unacknowledged.
func (c Commit) Wait() error {
	if c.log == nil {
		return nil
	}
	return c.log.Commit(c.Seq)
}

// LastSeq returns the sequence number of the most recently logged record.
func (s *Stream) LastSeq() uint64 {
	if s == nil {
		return 0
	}
	return s.log.LastSeq()
}

// Prune removes the segments a snapshot through upTo covers ((*Log).Prune).
func (s *Stream) Prune(upTo uint64) error {
	if s == nil {
		return nil
	}
	return s.log.Prune(upTo)
}

// Close seals the stream; later Logs fail.
func (s *Stream) Close() error {
	if s == nil {
		return nil
	}
	return s.log.Close()
}
