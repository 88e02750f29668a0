// Package wal implements a checksummed, length-prefixed write-ahead log
// for index mutations: monotonic sequence numbers, segment rotation, a
// configurable fsync policy (per-record, batched group-commit, or off), and
// torn-tail tolerance — recovery truncates the log at the first bad CRC or
// short frame in the final segment instead of failing, because a crash mid
// write legitimately leaves exactly that state behind.
//
// On-disk layout: a directory of segment files named wal-<firstseq>.seg,
// each holding a 5-byte header (magic "ATWL", version) followed by frames
//
//	u32 payload length | u32 CRC-32C of payload | payload
//	payload = u64 sequence number | u8 record kind | body
//
// Sequence numbers start at 1 and increase by exactly 1 across segment
// boundaries; a gap, a bad CRC or a short frame anywhere but the tail of
// the final segment is corruption (ErrCorrupt), not a torn write.
//
// The log is fail-stop: after any write or fsync error every subsequent
// Append and Commit returns the first error, so a caller can never
// acknowledge a mutation whose durability is unknown.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncMode selects when Commit considers a record durable.
type SyncMode int

const (
	// SyncAlways fsyncs before every Commit returns: an acknowledged
	// mutation survives any crash. Concurrent committers still share one
	// fsync when their records were covered by it.
	SyncAlways SyncMode = iota
	// SyncGroup batches group-commits: Commit waits a short gather window
	// (Options.GatherWindow) so concurrent writers amortize one fsync, then
	// syncs. Acknowledged mutations still survive any crash; the trade is
	// per-mutation latency for throughput.
	SyncGroup
	// SyncOff never fsyncs. Records are written to the OS, so they survive
	// a process crash (SIGKILL) but not a machine crash. Fastest, weakest.
	SyncOff
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(m))
	}
}

// ParseSyncMode parses "always", "group" or "off".
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "always", "":
		return SyncAlways, nil
	case "group", "batch":
		return SyncGroup, nil
	case "off", "never":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (want always|group|off)", s)
}

// Options tunes a Log.
type Options struct {
	// Dir is the segment directory (created if missing).
	Dir string
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncMode
	// SegmentBytes rotates to a new segment once the current one exceeds
	// it. 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// GatherWindow is SyncGroup's batching delay before an fsync. 0 selects
	// DefaultGatherWindow.
	GatherWindow time.Duration
	// FirstSeq, when > 1, is the sequence number the next Append assigns
	// if the log holds no records: Recover sets it so numbering resumes
	// after a snapshot that absorbed and pruned the whole log.
	FirstSeq uint64
	// FS overrides the filesystem; nil selects the real one. Tests inject
	// internal/faultfs here.
	FS FS
}

// DefaultSegmentBytes is the default segment rotation size.
const DefaultSegmentBytes = 16 << 20

// DefaultGatherWindow is SyncGroup's default batching delay.
const DefaultGatherWindow = 2 * time.Millisecond

// ErrCorrupt reports corruption that torn-tail tolerance cannot excuse: a
// bad frame anywhere except the tail of the final segment.
var ErrCorrupt = errors.New("wal: corrupt log")

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	segMagic   = "ATWL"
	segVersion = 1
	headerLen  = len(segMagic) + 1
	frameHdr   = 8       // u32 length + u32 crc
	maxPayload = 1 << 28 // 256 MiB; anything larger is corruption
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one logged mutation.
type Record struct {
	Seq  uint64
	Kind uint8
	Data []byte
}

// Log is an append-only write-ahead log. Append and Commit are safe for
// concurrent use; Append assigns sequence numbers in call order.
type Log struct {
	fsys     FS
	dir      string
	mode     SyncMode
	segBytes int64
	gather   time.Duration

	mu       sync.Mutex
	f        File   // current segment, nil until the first append (lazy)
	fsize    int64  // bytes written to f
	nextSeq  uint64 // seq the next Append assigns
	appended uint64 // last seq written to the OS
	synced   uint64 // last seq known durable
	err      error  // sticky: first write/sync failure, fails everything after
	closed   bool
	scratch  []byte

	// syncMu is the group-commit door: one fsync in flight at a time, and
	// every committer whose record it covered rides along for free.
	syncMu sync.Mutex
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.GatherWindow <= 0 {
		o.GatherWindow = DefaultGatherWindow
	}
	return o
}

// Open opens (or creates) the log in opts.Dir for appending. A torn tail
// left by a crash is repaired first — the final segment is truncated to its
// last intact frame — so appends never land after garbage. Open does not
// replay records; call Replay first to rebuild state.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{
		fsys:     opts.FS,
		dir:      opts.Dir,
		mode:     opts.Sync,
		segBytes: opts.SegmentBytes,
		gather:   opts.GatherWindow,
		nextSeq:  1,
	}
	segs, err := listSegments(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	// Find the last intact record, repairing torn tails backwards: a crash
	// can leave the final segment empty or entirely garbage, in which case
	// the previous segment holds the tail.
	found := false
	for len(segs) > 0 {
		name := segs[len(segs)-1]
		scan, err := scanSegment(opts.FS, opts.Dir, name, nil)
		if err != nil {
			return nil, err
		}
		if scan.torn {
			if err := truncateSegment(opts.FS, opts.Dir, name, scan.validBytes, scan.records); err != nil {
				return nil, fmt.Errorf("wal: repair torn tail of %s: %w", name, err)
			}
		}
		if scan.records > 0 {
			l.nextSeq = scan.lastSeq + 1
			found = true
			break
		}
		segs = segs[:len(segs)-1]
	}
	if !found && opts.FirstSeq > 1 {
		l.nextSeq = opts.FirstSeq
	}
	l.appended = l.nextSeq - 1
	l.synced = l.appended
	return l, nil
}

// Append writes one record and returns its sequence number. The record is
// NOT durable yet — pair every Append with a Commit on the returned
// sequence number once the in-memory application is done; the split lets
// concurrent writers share fsyncs (group commit).
func (l *Log) Append(kind uint8, body []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	seq := l.nextSeq
	frame := appendFrame(l.scratch[:0], seq, kind, body)
	l.scratch = frame[:0]

	if l.f != nil && l.fsize+int64(len(frame)) > l.segBytes && l.fsize > int64(headerLen) {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	if l.f == nil {
		f, err := l.fsys.Create(join(l.dir, segName(seq)))
		if err != nil {
			l.err = fmt.Errorf("wal: create segment: %w", err)
			return 0, l.err
		}
		// The new segment's directory entry must be durable before any
		// record in it can be acknowledged; fsyncing the file alone leaves
		// the file unreachable after a machine crash.
		if err := l.fsys.SyncDir(l.dir); err != nil {
			l.err = fmt.Errorf("wal: sync segment dir: %w", err)
			f.Close()
			return 0, l.err
		}
		if _, err := f.Write(segHeader()); err != nil {
			l.err = fmt.Errorf("wal: segment header: %w", err)
			f.Close()
			return 0, l.err
		}
		l.f = f
		l.fsize = int64(headerLen)
	}
	// One Write per frame: a crash mid-call leaves exactly the torn tail
	// recovery is built to truncate.
	if _, err := l.f.Write(frame); err != nil {
		l.err = fmt.Errorf("wal: append: %w", err)
		return 0, l.err
	}
	l.fsize += int64(len(frame))
	l.nextSeq++
	l.appended = seq
	return seq, nil
}

// rotateLocked seals the current segment (fsync + close, so every record in
// it is durable before the file is abandoned) and arms lazy creation of the
// next one. Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: rotate sync: %w", err)
		return l.err
	}
	if err := l.f.Close(); err != nil {
		l.err = fmt.Errorf("wal: rotate close: %w", err)
		return l.err
	}
	l.synced = l.appended
	l.f = nil
	l.fsize = 0
	return nil
}

// Commit blocks until the record with the given sequence number is durable
// under the configured sync policy and returns the sticky error if the log
// has failed. With SyncOff it returns immediately.
func (l *Log) Commit(seq uint64) error {
	l.mu.Lock()
	if l.err != nil && l.synced < seq {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.mode == SyncOff || l.synced >= seq {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	if l.mode == SyncGroup {
		// Gather window: let concurrent writers append before one fsync
		// covers the whole batch.
		time.Sleep(l.gather)
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.synced >= seq {
		l.mu.Unlock()
		return nil
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	f, target := l.f, l.appended
	l.mu.Unlock()
	var err error
	if f != nil {
		err = f.Sync()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err == nil {
		if target > l.synced {
			l.synced = target
		}
		return nil
	}
	if l.synced >= seq {
		// A rotation or Close sealed the segment holding seq between our
		// capture and the fsync; the record is durable, the stale handle's
		// error is not ours to report.
		return nil
	}
	l.err = fmt.Errorf("wal: sync: %w", err)
	return l.err
}

// LastSeq returns the sequence number of the most recently appended record
// (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Close seals the log: outstanding records are fsynced and the current
// segment is closed. Appends after Close fail.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return l.err
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("wal: close: %w", err)
		}
		return l.err
	}
	l.synced = l.appended
	return nil
}

// Prune removes whole segments every record of which has sequence number
// <= upTo (typically the snapshot's last applied seq). The newest segment
// is always kept, so the log never forgets its position.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.fsys, l.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		next, err := segFirstSeq(segs[i+1])
		if err != nil {
			return err
		}
		if next > upTo+1 {
			break
		}
		if err := l.fsys.Remove(join(l.dir, segs[i])); err != nil {
			return fmt.Errorf("wal: prune %s: %w", segs[i], err)
		}
	}
	return nil
}

// ReplayInfo describes what a Replay recovered.
type ReplayInfo struct {
	// Segments is the number of segment files visited.
	Segments int
	// Records is the number of records delivered to the callback.
	Records int64
	// LastSeq is the final delivered record's sequence number (0 if none).
	LastSeq uint64
	// Torn reports that the final segment ended in a bad or short frame and
	// replay truncated there (the signature of a crash mid-append).
	Torn bool
	// TornSegment names the truncated segment when Torn.
	TornSegment string
}

// Replay streams every record in dir to fn in sequence order. A bad frame
// at the tail of the final segment truncates the replay there (Torn); a bad
// frame anywhere else is ErrCorrupt. A missing directory replays nothing.
// fn's Record.Data is only valid during the call.
func Replay(fsys FS, dir string, fn func(Record) error) (ReplayInfo, error) {
	if fsys == nil {
		fsys = OSFS()
	}
	var info ReplayInfo
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return info, err
	}
	info.Segments = len(segs)
	expect := uint64(0) // first segment's name fixes the starting seq
	for i, name := range segs {
		first, err := segFirstSeq(name)
		if err != nil {
			return info, err
		}
		if expect != 0 && first != expect {
			return info, fmt.Errorf("%w: segment %s does not continue seq %d", ErrCorrupt, name, expect)
		}
		last := i == len(segs)-1
		scan, err := scanSegment(fsys, dir, name, func(r Record) error {
			info.Records++
			info.LastSeq = r.Seq
			return fn(r)
		})
		if err != nil {
			return info, err
		}
		if scan.torn {
			if !last {
				return info, fmt.Errorf("%w: segment %s is torn but not final", ErrCorrupt, name)
			}
			info.Torn = true
			info.TornSegment = name
			return info, nil
		}
		if scan.records > 0 {
			expect = scan.lastSeq + 1
			continue
		}
		// A record-less segment can only be a crash's leftovers at the very
		// end of the log (lazy creation writes the first frame right after
		// the header); anywhere else it hides a lost tail.
		if !last {
			return info, fmt.Errorf("%w: empty segment %s is not final", ErrCorrupt, name)
		}
	}
	return info, nil
}

type segScan struct {
	records    int64
	lastSeq    uint64
	validBytes int64 // header + intact frames
	torn       bool
}

// scanSegment reads one segment, verifying frame CRCs and seq contiguity
// (each record's seq must be exactly previous+1, and the first must match
// the segment's name). Any anomaly stops the scan with torn=true; the
// caller decides whether torn is tolerable (final segment) or ErrCorrupt.
func scanSegment(fsys FS, dir, name string, fn func(Record) error) (segScan, error) {
	var s segScan
	first, err := segFirstSeq(name)
	if err != nil {
		return s, err
	}
	f, err := fsys.Open(join(dir, name))
	if err != nil {
		return s, fmt.Errorf("wal: open %s: %w", name, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		s.torn = true // shorter than a header: crash before the magic landed
		return s, nil
	}
	if string(hdr[:len(segMagic)]) != segMagic || hdr[len(segMagic)] != segVersion {
		s.torn = true
		return s, nil
	}
	s.validBytes = int64(headerLen)

	var fh [frameHdr]byte
	buf := make([]byte, 0, 4096)
	expect := first
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			if err == io.EOF {
				return s, nil // clean end at a frame boundary
			}
			s.torn = true
			return s, nil
		}
		plen := binary.LittleEndian.Uint32(fh[0:4])
		crc := binary.LittleEndian.Uint32(fh[4:8])
		if plen < 9 || plen > maxPayload {
			s.torn = true
			return s, nil
		}
		if cap(buf) < int(plen) {
			buf = make([]byte, plen)
		}
		payload := buf[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			s.torn = true
			return s, nil
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			s.torn = true
			return s, nil
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		if seq != expect {
			s.torn = true
			return s, nil
		}
		rec := Record{Seq: seq, Kind: payload[8], Data: payload[9:]}
		if fn != nil {
			if err := fn(rec); err != nil {
				return s, err
			}
		}
		s.records++
		s.lastSeq = seq
		s.validBytes += int64(frameHdr) + int64(plen)
		expect++
	}
}

// truncateSegment rewrites a torn segment to its intact prefix (atomically,
// via a temp file), or removes it entirely when no frame survived.
func truncateSegment(fsys FS, dir, name string, validBytes int64, records int64) error {
	path := join(dir, name)
	if records == 0 {
		return fsys.Remove(path)
	}
	src, err := fsys.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	return WriteFileAtomic(fsys, path, func(w io.Writer) error {
		_, err := io.Copy(w, io.LimitReader(src, validBytes))
		return err
	})
}

func segHeader() []byte { return append([]byte(segMagic), segVersion) }

func appendFrame(dst []byte, seq uint64, kind uint8, body []byte) []byte {
	plen := 8 + 1 + len(body)
	dst = slices.Grow(dst, frameHdr+plen)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = append(dst, kind)
	dst = append(dst, body...)
	crc := crc32.Checksum(dst[frameHdr:], castagnoli)
	binary.LittleEndian.PutUint32(dst[4:8], crc)
	return dst
}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, firstSeq, segSuffix)
}

func segFirstSeq(name string) (uint64, error) {
	mid, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, fmt.Errorf("wal: not a segment name: %q", name)
	}
	mid, ok = strings.CutSuffix(mid, segSuffix)
	if !ok {
		return 0, fmt.Errorf("wal: not a segment name: %q", name)
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: bad segment name %q: %w", name, err)
	}
	return n, nil
}

// listSegments returns dir's segment file names sorted by first seq. A
// missing directory lists empty; any other listing error is returned, so a
// transient I/O or permission failure can never make an existing log look
// empty. Foreign files are ignored.
func listSegments(fsys FS, dir string) ([]string, error) {
	names, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // no directory yet: an empty log
	}
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	segs := names[:0]
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix) {
			segs = append(segs, n)
		}
	}
	slices.SortFunc(segs, func(a, b string) int {
		sa, ea := segFirstSeq(a)
		sb, eb := segFirstSeq(b)
		if ea != nil || eb != nil {
			return strings.Compare(a, b)
		}
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	})
	return segs, nil
}

// ListSegments returns the log directory's segment file names in ascending
// first-seq order (empty when the directory does not exist). Replication
// ships these files verbatim: together with SegmentFirstSeq it lets a
// cluster node select which segment files cover a follower's missing
// suffix without opening the log.
func ListSegments(fsys FS, dir string) ([]string, error) {
	return listSegments(fsys, dir)
}

// SegmentFirstSeq parses the first sequence number a segment file name
// encodes (the name fixes where its records start — the property Replay
// relies on, and what makes a shipped subset of segments replayable).
func SegmentFirstSeq(name string) (uint64, error) {
	return segFirstSeq(name)
}
