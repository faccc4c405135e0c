// Package wal is a segmented, append-only write-ahead log: the durability
// layer that promotes optimusd from a process that loses every in-flight job
// on a crash into a control plane that can be killed -9 and replayed
// byte-identically (DESIGN.md §17).
//
// Records are typed, length-prefixed and CRC-framed:
//
//	uint32  body length (big endian)
//	uint32  IEEE CRC-32 of the body
//	body  = uint8 record type | uint64 sequence (big endian) | payload
//
// Sequence numbers are assigned by the log, start at 1 and increase by
// exactly 1 per record; a gap or CRC mismatch during a scan is treated as
// the torn tail of a crash and everything from that point on is ignored
// (and truncated away when the log is next opened for appending).
//
// The log is a directory of segment files named by the sequence number of
// their first record (%020d.wal). Appends roll to a new segment past
// SegmentBytes; Checkpoint starts a fresh segment with a checkpoint record
// (an application snapshot) and retires every older segment, bounding both
// disk use and replay time.
//
// Durability is a policy knob (per-record, grouped, off). Grouped is the
// serving default: AppendSync batches concurrent callers behind one fsync
// (classic group commit), so a burst of submissions pays ~one disk flush,
// not one per request, while every acked record is still durable before the
// ack.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"optimus/internal/obs"
)

// Type tags one record's payload schema. The concrete payloads live with the
// application (internal/serve); the log only frames and orders them.
type Type uint8

const (
	// TypeSubmit is one admitted job submission.
	TypeSubmit Type = 1
	// TypeCancel is one acknowledged cancellation.
	TypeCancel Type = 2
	// TypeProfile is a job's §3.2 pre-run profiling samples.
	TypeProfile Type = 3
	// TypeObserve is one interval's progress/speed/loss observation of a job.
	TypeObserve Type = 4
	// TypeDeploy is a §4 grant: a job's new deployment state.
	TypeDeploy Type = 5
	// TypeComplete marks a job converged.
	TypeComplete Type = 6
	// TypeFault is a straggler-injection state change.
	TypeFault Type = 7
	// TypeRound commits one scheduling interval (round counter + sim clock).
	TypeRound Type = 8
	// TypeMembership records a control-plane membership change (leader
	// election, follower takeover) with its lease term.
	TypeMembership Type = 9
	// TypeCheckpoint carries a full application snapshot; it is always the
	// first record of its segment and retires every earlier segment.
	TypeCheckpoint Type = 10
)

// String implements fmt.Stringer with the spelling used by optimus-trace wal.
func (t Type) String() string {
	switch t {
	case TypeSubmit:
		return "submit"
	case TypeCancel:
		return "cancel"
	case TypeProfile:
		return "profile"
	case TypeObserve:
		return "observe"
	case TypeDeploy:
		return "deploy"
	case TypeComplete:
		return "complete"
	case TypeFault:
		return "fault"
	case TypeRound:
		return "round"
	case TypeMembership:
		return "membership"
	case TypeCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Record is one decoded log entry. Payload aliases the scan buffer only for
// the duration of the scan callback; callers retaining it must copy.
type Record struct {
	Seq     uint64
	Type    Type
	Payload []byte
}

// FsyncPolicy selects when appended records reach stable storage.
type FsyncPolicy int

const (
	// FsyncGroup makes AppendSync durable via group commit: concurrent
	// callers share one fsync. Plain Append is buffered until the next group
	// flush. The serving default.
	FsyncGroup FsyncPolicy = iota
	// FsyncEach flushes and fsyncs after every single append.
	FsyncEach
	// FsyncOff never fsyncs; AppendSync degrades to Append. Records reach
	// the segment file (the OS page cache, which flushes whenever it likes)
	// once 64 KiB are pending, at a segment roll, at Sync or at Close, so a
	// process crash loses at most the unwritten tail. For benchmarks and
	// tests only.
	FsyncOff
)

// String implements fmt.Stringer with the -fsync flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncGroup:
		return "group"
	case FsyncEach:
		return "each"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag spelling.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "group":
		return FsyncGroup, nil
	case "each":
		return FsyncEach, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want each, group or off)", s)
}

// Options parameterizes Open. The zero value of every field but Dir has a
// sensible default.
type Options struct {
	Dir          string
	Fsync        FsyncPolicy
	SegmentBytes int64 // roll threshold; default 4 MiB
	// Flight, when set, receives black-box events for torn-tail repairs,
	// segment rolls, checkpoints and I/O errors (nil is fine: every use is
	// nil-receiver safe).
	Flight *obs.FlightRecorder
}

const (
	defaultSegmentBytes = 4 << 20
	// frameHeader is length + CRC; frameMeta is type + seq inside the body.
	frameHeader = 8
	frameMeta   = 9
	// maxFrameBody bounds a single record (checkpoint snapshots included) so
	// a corrupt length prefix can never drive a giant allocation.
	maxFrameBody = 1 << 26
	segSuffix    = ".wal"
	// flushBytes bounds the pending buffer: an append that leaves this many
	// bytes pending writes them to the segment file. The buffer holds whole
	// frames only, so every write ends on a frame boundary.
	flushBytes = 64 << 10
)

// ErrClosed is returned by appends on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Stats is a point-in-time view of the log's counters, exported by optimusd
// as the optimus_wal_* Prometheus family.
type Stats struct {
	Appends     uint64 // records appended this process
	Fsyncs      uint64 // fsync syscalls issued
	Bytes       uint64 // bytes appended this process
	Segments    int    // live segment files
	LastSeq     uint64 // last assigned sequence number
	DurableSeq  uint64 // last sequence known to be on stable storage
	Checkpoints uint64 // checkpoint/compaction cycles this process
}

// Log is an open, appendable write-ahead log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when synced advances or the log closes
	f       *os.File
	buf     []byte // pending bytes not yet written to f
	seq     uint64 // last assigned sequence
	synced  uint64 // last sequence known durable
	syncing bool   // one group fsync in flight
	curBase uint64 // first sequence of the current segment
	curSize int64  // bytes in the current segment (including pending)
	err     error  // sticky I/O error; fails all later appends
	closed  bool

	appends     atomic.Uint64
	fsyncs      atomic.Uint64
	bytes       atomic.Uint64
	checkpoints atomic.Uint64
}

// Open scans dir (creating it if needed), truncates any torn tail left by a
// crash, and returns a log positioned to append after the last valid record.
// Segments past a tear are unreachable by sequence and are deleted.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	res, err := scanSegments(opts.Dir, segs, 0, nil)
	if err != nil {
		return nil, err
	}
	if res.Torn {
		// Crash repair: cut the torn segment back to its last valid frame and
		// drop every later segment (unreachable past the sequence gap).
		opts.Flight.Record("wal", obs.SevWarn, "torn tail truncated",
			obs.KS("segment", res.TornSegment), obs.KI("offset", res.TornOffset),
			obs.KU("lastSeq", res.LastSeq))
		if err := os.Truncate(filepath.Join(opts.Dir, res.TornSegment), res.TornOffset); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		drop := false
		for _, s := range segs {
			if drop {
				if err := os.Remove(filepath.Join(opts.Dir, s.name)); err != nil {
					return nil, fmt.Errorf("wal: dropping post-tear segment: %w", err)
				}
			}
			if s.name == res.TornSegment {
				drop = true
			}
		}
		segs, err = listSegments(opts.Dir)
		if err != nil {
			return nil, err
		}
	}
	l := &Log{opts: opts, seq: res.LastSeq, synced: res.LastSeq}
	l.cond = sync.NewCond(&l.mu)
	if len(segs) == 0 {
		if err := l.newSegmentLocked(l.seq + 1); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	path := filepath.Join(opts.Dir, last.name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f, l.curBase, l.curSize = f, last.base, st.Size()
	return l, nil
}

// newSegmentLocked closes the current segment (if any) and starts a new one
// whose first record will carry sequence base. An empty current segment
// already named for base is kept: its file exists, and a fresh Open of an
// empty directory leaves one. Callers hold l.mu.
func (l *Log) newSegmentLocked(base uint64) error {
	if l.f != nil && l.curSize == 0 && l.curBase == base {
		return nil
	}
	if l.f != nil {
		if err := l.flushLocked(); err != nil {
			return err
		}
		if l.opts.Fsync != FsyncOff {
			if err := l.f.Sync(); err != nil {
				return err
			}
			l.fsyncs.Add(1)
			l.synced = l.seq
		}
		if err := l.f.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segName(base)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		// Sticky: a log that cannot open its next segment cannot honor any
		// later durability promise either — fail-stop the whole log so the
		// readiness plane reports it down instead of limping.
		l.err = fmt.Errorf("wal: %w", err)
		l.opts.Flight.Record("wal", obs.SevError, "segment create failed",
			obs.KU("base", base), obs.KS("err", err.Error()))
		return l.err
	}
	l.opts.Flight.Record("wal", obs.SevDebug, "segment roll", obs.KU("base", base))
	l.f, l.curBase, l.curSize = f, base, 0
	return nil
}

// flushLocked writes the pending buffer to the segment file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = err
		l.opts.Flight.Record("wal", obs.SevError, "segment write failed",
			obs.KU("base", l.curBase), obs.KS("err", err.Error()))
		return err
	}
	if cap(l.buf) > 4*flushBytes {
		l.buf = nil // a checkpoint-sized frame passed through; don't keep it
	} else {
		l.buf = l.buf[:0]
	}
	return nil
}

// appendLocked frames one record into the pending buffer, rolling segments
// as needed, writes the buffer out once flushBytes are pending, and returns
// the record's sequence.
func (l *Log) appendLocked(t Type, payload []byte) (uint64, error) {
	switch {
	case l.closed:
		return 0, ErrClosed
	case l.err != nil:
		return 0, l.err
	case len(payload) > maxFrameBody-frameMeta:
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds frame limit", len(payload))
	}
	// Roll before the record so a record never spans segments. Deferred
	// while a group fsync is in flight: the fsync targets the current file.
	if l.curSize >= l.opts.SegmentBytes && !l.syncing {
		if err := l.newSegmentLocked(l.seq + 1); err != nil {
			return 0, err
		}
	}
	l.seq++
	// The frame is built in place: a header array on the stack would escape
	// through the CRC call and cost an allocation per record.
	body := frameMeta + len(payload)
	start := len(l.buf)
	l.buf = append(l.buf, make([]byte, frameHeader+frameMeta)...)
	l.buf = append(l.buf, payload...)
	frame := l.buf[start:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(body))
	frame[8] = byte(t)
	binary.BigEndian.PutUint64(frame[9:17], l.seq)
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHeader:]))
	l.curSize += int64(frameHeader + body)
	l.appends.Add(1)
	l.bytes.Add(uint64(frameHeader + body))
	if len(l.buf) >= flushBytes {
		if err := l.flushLocked(); err != nil {
			return 0, err
		}
	}
	return l.seq, nil
}

// syncToLocked blocks until sequence s is durable, driving or joining a
// group commit. The mutex is released during the fsync syscall so concurrent
// appenders keep filling the next group. Callers hold l.mu.
func (l *Log) syncToLocked(s uint64) error {
	for l.synced < s {
		if l.err != nil {
			return l.err
		}
		if l.closed {
			return ErrClosed
		}
		if l.syncing {
			l.cond.Wait() // join the in-flight group, re-check after
			continue
		}
		l.syncing = true
		if err := l.flushLocked(); err != nil {
			l.syncing = false
			l.cond.Broadcast()
			return err
		}
		target, f := l.seq, l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.fsyncs.Add(1)
		l.syncing = false
		if err != nil {
			l.err = err
			l.opts.Flight.Record("wal", obs.SevError, "fsync failed",
				obs.KU("target", target), obs.KS("err", err.Error()))
		} else if target > l.synced {
			l.synced = target
		}
		l.cond.Broadcast()
	}
	return nil
}

// Append frames one record without waiting for durability. Under FsyncEach
// it still flushes and fsyncs (the policy is per-record, whoever appends);
// under FsyncGroup/FsyncOff it returns as soon as the record is buffered.
func (l *Log) Append(t Type, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, err := l.appendLocked(t, payload)
	if err != nil {
		return 0, err
	}
	if l.opts.Fsync == FsyncEach {
		return s, l.syncToLocked(s)
	}
	return s, nil
}

// AppendSync frames one record and makes it durable per the fsync policy
// before returning: immediately under FsyncEach, behind at most one shared
// group flush under FsyncGroup, not at all under FsyncOff.
func (l *Log) AppendSync(t Type, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, err := l.appendLocked(t, payload)
	if err != nil {
		return 0, err
	}
	if l.opts.Fsync == FsyncOff {
		return s, nil
	}
	return s, l.syncToLocked(s)
}

// Sync flushes and fsyncs everything appended so far (even under FsyncOff).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		l.opts.Flight.Record("wal", obs.SevError, "fsync failed",
			obs.KU("target", l.seq), obs.KS("err", err.Error()))
		return err
	}
	l.fsyncs.Add(1)
	l.synced = l.seq
	return nil
}

// Checkpoint writes snapshot as a TypeCheckpoint record opening a brand-new
// segment, fsyncs it, and deletes every older segment: replay afterwards
// starts from the snapshot instead of the beginning of history. Returns the
// checkpoint record's sequence.
func (l *Log) Checkpoint(snapshot []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	// Wait out any in-flight group fsync: rolling the file under it would
	// sync a closed descriptor.
	for l.syncing {
		l.cond.Wait()
	}
	if err := l.newSegmentLocked(l.seq + 1); err != nil {
		return 0, err
	}
	s, err := l.appendLocked(TypeCheckpoint, snapshot)
	if err != nil {
		return 0, err
	}
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return 0, err
	}
	l.fsyncs.Add(1)
	l.synced = l.seq
	// The checkpoint is durable; everything before its segment is redundant.
	segs, err := listSegments(l.opts.Dir)
	if err != nil {
		return 0, err
	}
	for _, seg := range segs {
		if seg.base < l.curBase {
			if err := os.Remove(filepath.Join(l.opts.Dir, seg.name)); err != nil {
				return 0, fmt.Errorf("wal: retiring segment: %w", err)
			}
		}
	}
	l.checkpoints.Add(1)
	l.opts.Flight.Record("wal", obs.SevInfo, "checkpoint",
		obs.KU("seq", s), obs.KI("bytes", int64(len(snapshot))))
	return s, nil
}

// LastSeq returns the last assigned sequence number.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Err returns the log's sticky I/O error, if any: once set, every later
// append fails with it. The daemon's readiness plane polls this to report
// the WAL component down.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Dir returns the log's directory (where fail-stop debug bundles land).
func (l *Log) Dir() string { return l.opts.Dir }

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	seq, synced := l.seq, l.synced
	l.mu.Unlock()
	segs, _ := listSegments(l.opts.Dir)
	return Stats{
		Appends:     l.appends.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Bytes:       l.bytes.Load(),
		Segments:    len(segs),
		LastSeq:     seq,
		DurableSeq:  synced,
		Checkpoints: l.checkpoints.Load(),
	}
}

// Close flushes, fsyncs (unless FsyncOff) and closes the log. Waiters on an
// in-flight group commit are released.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.syncing {
		l.cond.Wait()
	}
	l.closed = true
	l.cond.Broadcast()
	if err := l.flushLocked(); err != nil {
		l.f.Close()
		return err
	}
	if l.opts.Fsync != FsyncOff && l.err == nil {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
		l.fsyncs.Add(1)
		l.synced = l.seq
	}
	return l.f.Close()
}

// segment is one discovered segment file.
type segment struct {
	name string
	base uint64 // sequence of its first record, from the file name
}

func segName(base uint64) string { return fmt.Sprintf("%020d%s", base, segSuffix) }

// listSegments returns dir's segment files sorted by base sequence. Files
// whose names don't parse are ignored (LEASE files, editor droppings).
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != segSuffix {
			continue
		}
		var base uint64
		if _, err := fmt.Sscanf(name, "%d", &base); err != nil {
			continue
		}
		segs = append(segs, segment{name: name, base: base})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	return segs, nil
}
