package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"optimus/internal/core"
	"optimus/internal/obs"
	"optimus/internal/sim"
	"optimus/internal/speedfit"
	"optimus/internal/wal"
	"optimus/internal/workload"
)

// This file is the daemon's durability and replication seam (DESIGN.md §17):
// the typed WAL record payloads, the append hooks the serving/engine paths
// call, one apply function per record type, and the replay applier that
// rebuilds a daemon from a log.
//
// The replay contract is byte-identical state: every mutation of durable job
// state flows through exactly one record type carrying the *drawn* values
// (noisy speed/loss measurements, not their post-hoc averages), and through
// that type's one apply function (applySubmit, applyProfile, applyObserve,
// applyDeploy, applyFault, applyCancel, applyComplete, applyRound). The live
// path builds a payload, appends it, then applies it; WALApplier decodes it
// and applies it; restoreSnapLocked applies a checkpoint. So a post-replay
// WriteSnapshot equals a graceful-shutdown snapshot, modulo the savedWall
// timestamp, and a follower tailing the log serves the leader's statuses.
// Two counters are deliberately outside the contract: admission rejections
// (telemetry, never acked as state) and IDs burned by a failed WAL append
// (the submission was never acked).
//
// Record ordering relies on the same seams as the serving path itself:
//   - a job's submit record is appended durably before the registry insert,
//     so no engine record for the job can precede it;
//   - deploy/complete records are appended inside the job's shard-lock
//     critical section, in mutation order;
//   - a cancel record is appended after its shard-locked apply, so no
//     durable append holds a shard lock; engine sections re-check terminal
//     state under the shard lock before mutating, so no state-changing
//     record for the job can follow its cancel.

// ErrNotLeader rejects writes on a daemon serving as a read-only HA
// follower; clients should retry against the current leader.
var ErrNotLeader = errors.New("serve: not the leader (read-only follower)")

// WAL record payloads. Observe and deploy records are the log's volume (one
// per placed job per round, one per moved job), so they are binary (below);
// every other type is JSON. The JSON tags of walObserve and walDeploy are
// what optimus-trace wal prints for them.

type walSubmit struct {
	ID        int       `json:"id"`
	Model     string    `json:"model"`
	Mode      string    `json:"mode"`
	Threshold float64   `json:"th"`
	Downscale float64   `json:"ds,omitempty"`
	Arrival   float64   `json:"at"`
	Wall      time.Time `json:"wall"`
}

type walCancel struct {
	ID int `json:"id"`
}

type walProfile struct {
	ID      int               `json:"id"`
	Samples []speedfit.Sample `json:"samples"`
}

// walObserve carries one interval's drawn measurements for one job, as
// sim.Job.Measure returned them. A zero Speed or Loss means that half was
// not measured (or drawn nonpositive); applyObserve feeds the rest to the
// estimators, which accept or reject it as they did live.
type walObserve struct {
	ID       int     `json:"id"`
	Progress float64 `json:"prog"`
	PS       int     `json:"ps,omitempty"`
	W        int     `json:"w,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
	K        float64 `json:"k,omitempty"`
	Loss     float64 `json:"loss,omitempty"`
}

type walDeploy struct {
	ID    int      `json:"id"`
	State JobState `json:"state"`
	PS    int      `json:"ps,omitempty"`
	W     int      `json:"w,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
}

type walComplete struct {
	ID     int     `json:"id"`
	DoneAt float64 `json:"done"`
}

type walFault struct {
	ID         int  `json:"id"`
	Straggling bool `json:"straggling"`
}

type walRound struct {
	Round   int     `json:"round"`
	SimTime float64 `json:"t"`
}

type walMembership struct {
	Holder string `json:"holder"`
	Term   uint64 `json:"term"`
	Role   string `json:"role"`
}

// Binary layouts of the observe and deploy payloads, big endian, float64s
// as math.Float64bits:
//
//	observe (49 bytes): 0xB1 | id u64 | prog f64 | ps u32 | w u32 | speed f64 | k f64 | loss f64
//	deploy:             0xB1 | id u64 | state u8 | ps u32 | w u32 |
//	                    nodes u16 | nodes × (len u16 | node ID bytes)
//
// The deploy state byte is 1 for waiting and 2 for running, the only states
// a deploy record carries. The leading tag is a byte no JSON text starts
// with, so a payload written before the layout existed is rejected, never
// misread. Decoding is strict (exact length, known state), so every payload
// that decodes re-encodes to the same bytes.
const (
	walBinaryTag   = 0xB1
	walObserveSize = 1 + 8 + 8 + 4 + 4 + 8 + 8 + 8
	walDeployHead  = 1 + 8 + 1 + 4 + 4 + 2
)

// walLayoutError explains why a payload of type t did not decode.
func walLayoutError(t wal.Type, b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		return fmt.Errorf("serve: %s payload is JSON, from a build before the binary %s layout; such logs do not replay", t, t)
	}
	return fmt.Errorf("serve: malformed %s payload (%d bytes)", t, len(b))
}

// appendTo appends p's binary layout to b.
func (p walObserve) appendTo(b []byte) []byte {
	b = append(b, walBinaryTag)
	b = binary.BigEndian.AppendUint64(b, uint64(p.ID))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Progress))
	b = binary.BigEndian.AppendUint32(b, uint32(p.PS))
	b = binary.BigEndian.AppendUint32(b, uint32(p.W))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.Speed))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(p.K))
	return binary.BigEndian.AppendUint64(b, math.Float64bits(p.Loss))
}

// decode reads p from its binary layout.
func (p *walObserve) decode(b []byte) error {
	if len(b) != walObserveSize || b[0] != walBinaryTag {
		return walLayoutError(wal.TypeObserve, b)
	}
	be := binary.BigEndian
	*p = walObserve{
		ID:       int(be.Uint64(b[1:])),
		Progress: math.Float64frombits(be.Uint64(b[9:])),
		PS:       int(be.Uint32(b[17:])),
		W:        int(be.Uint32(b[21:])),
		Speed:    math.Float64frombits(be.Uint64(b[25:])),
		K:        math.Float64frombits(be.Uint64(b[33:])),
		Loss:     math.Float64frombits(be.Uint64(b[41:])),
	}
	return nil
}

// appendTo appends p's binary layout to b. It fails only on a state other
// than waiting or running, or on more node IDs, or a longer one, than the
// layout's u16 fields hold.
func (p walDeploy) appendTo(b []byte) ([]byte, error) {
	var state byte
	switch p.State {
	case StateWaiting:
		state = 1
	case StateRunning:
		state = 2
	default:
		return b, fmt.Errorf("serve: deploy record in state %q", p.State)
	}
	if len(p.Nodes) > math.MaxUint16 {
		return b, fmt.Errorf("serve: deploy record with %d nodes", len(p.Nodes))
	}
	b = append(b, walBinaryTag)
	b = binary.BigEndian.AppendUint64(b, uint64(p.ID))
	b = append(b, state)
	b = binary.BigEndian.AppendUint32(b, uint32(p.PS))
	b = binary.BigEndian.AppendUint32(b, uint32(p.W))
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Nodes)))
	for _, n := range p.Nodes {
		if len(n) > math.MaxUint16 {
			return b, fmt.Errorf("serve: deploy record with a %d-byte node ID", len(n))
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(n)))
		b = append(b, n...)
	}
	return b, nil
}

// decode reads p from its binary layout. The node IDs are fresh strings.
func (p *walDeploy) decode(b []byte) error {
	if len(b) < walDeployHead || b[0] != walBinaryTag {
		return walLayoutError(wal.TypeDeploy, b)
	}
	be := binary.BigEndian
	*p = walDeploy{
		ID: int(be.Uint64(b[1:])),
		PS: int(be.Uint32(b[10:])),
		W:  int(be.Uint32(b[14:])),
	}
	switch b[9] {
	case 1:
		p.State = StateWaiting
	case 2:
		p.State = StateRunning
	default:
		return walLayoutError(wal.TypeDeploy, b)
	}
	n := int(be.Uint16(b[18:]))
	rest := b[walDeployHead:]
	if len(rest) < 2*n { // each node ID has a 2-byte length
		return walLayoutError(wal.TypeDeploy, b)
	}
	if n > 0 {
		p.Nodes = make([]string, n)
	}
	for i := range p.Nodes {
		if len(rest) < 2 {
			return walLayoutError(wal.TypeDeploy, b)
		}
		k := int(be.Uint16(rest))
		if rest = rest[2:]; len(rest) < k {
			return walLayoutError(wal.TypeDeploy, b)
		}
		p.Nodes[i], rest = string(rest[:k]), rest[k:]
	}
	if len(rest) != 0 {
		return walLayoutError(wal.TypeDeploy, b)
	}
	return nil
}

// AttachWAL connects an open log to the daemon: every subsequent
// state-changing operation appends a record before (submissions) or as
// (engine mutations) it takes effect. Attach before serving traffic.
func (d *Daemon) AttachWAL(l *wal.Log) { d.wlog.Store(l) }

// WALStats returns the attached log's counters, or false when none.
func (d *Daemon) WALStats() (wal.Stats, bool) {
	l := d.wlog.Load()
	if l == nil {
		return wal.Stats{}, false
	}
	return l.Stats(), true
}

// walAppend buffers one JSON record (durable at the next group flush — the
// round commit at the latest). Engine-path errors are counted, not
// propagated: the log's sticky error will surface on the next durable ack
// append.
func (d *Daemon) walAppend(t wal.Type, v any) {
	if d.wlog.Load() != nil {
		b, err := json.Marshal(v)
		d.walBuffer(t, b, err)
	}
}

// walAppendObserve buffers one binary observe record, encoded in the
// engine-owned d.walBuf. Callers hold d.mu.
func (d *Daemon) walAppendObserve(p walObserve) {
	d.walBuf = p.appendTo(d.walBuf[:0])
	d.walBuffer(wal.TypeObserve, d.walBuf, nil)
}

// walAppendDeploy buffers one binary deploy record, like walAppendObserve.
func (d *Daemon) walAppendDeploy(p walDeploy) {
	var err error
	d.walBuf, err = p.appendTo(d.walBuf[:0])
	d.walBuffer(wal.TypeDeploy, d.walBuf, err)
}

// walBuffer appends an encoded payload, or counts the error that encoding
// it returned, the way walAppend documents.
func (d *Daemon) walBuffer(t wal.Type, b []byte, err error) {
	l := d.wlog.Load()
	if l == nil {
		return
	}
	if err == nil {
		_, err = l.Append(t, b)
	}
	if err != nil {
		d.walErrs.Add(1)
		d.flight.Record("wal", obs.SevError, "append failed",
			obs.KS("type", t.String()), obs.KS("err", err.Error()))
	}
}

// walAppendDurable appends one record and waits for durability per the
// log's fsync policy. Ack paths (Submit, Cancel, round commits) use it.
func (d *Daemon) walAppendDurable(t wal.Type, v any) error {
	l := d.wlog.Load()
	if l == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err == nil {
		_, err = l.AppendSync(t, b)
	}
	if err != nil {
		d.walErrs.Add(1)
		d.flight.Record("wal", obs.SevError, "durable append failed",
			obs.KS("type", t.String()), obs.KS("err", err.Error()))
	}
	return err
}

// WALAppendMembership durably records a control-plane role change (leader
// start, follower takeover) with its lease term.
func (d *Daemon) WALAppendMembership(holder string, term uint64, role string) error {
	return d.walAppendDurable(wal.TypeMembership,
		walMembership{Holder: holder, Term: term, Role: role})
}

// walCheckpointLocked writes the full snapshot as a checkpoint record,
// retiring every earlier segment. Callers hold d.mu.
func (d *Daemon) walCheckpointLocked(l *wal.Log) error {
	b, err := json.Marshal(d.snapshotLocked())
	if err == nil {
		_, err = l.Checkpoint(b)
	}
	if err != nil {
		d.walErrs.Add(1)
	}
	return err
}

// WALCheckpoint writes a snapshot checkpoint on demand (graceful shutdown,
// follower takeover). No-op without an attached log.
func (d *Daemon) WALCheckpoint() error {
	l := d.wlog.Load()
	if l == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walCheckpointLocked(l)
}

// SetReadOnly flips the daemon's follower mode: when set, Submit and Cancel
// fail with ErrNotLeader (HTTP 503) while every read path keeps serving.
func (d *Daemon) SetReadOnly(v bool) { d.readOnly.Store(v) }

// HAStatus is the control-plane block of GET /v1/cluster when the daemon
// runs under internal/ha leadership.
type HAStatus struct {
	Role        string `json:"role"` // "leader" or "follower"
	ID          string `json:"id,omitempty"`
	Term        uint64 `json:"term,omitempty"`
	LeaseHolder string `json:"leaseHolder,omitempty"`
	// AppliedSeq is the last WAL sequence applied locally; LagRecords is the
	// follower's distance behind the leader's last scanned record.
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
	LagRecords uint64 `json:"lagRecords,omitempty"`
}

// SetHAStatus publishes the daemon's HA role into /v1/cluster and /metrics.
func (d *Daemon) SetHAStatus(st HAStatus) {
	d.haStat.Store(&st)
	d.mu.Lock()
	d.publishClusterLocked()
	d.mu.Unlock()
}

// The apply functions, one per record type: with restoreJob, the only code
// that changes a job's recorded state. Callers hold the locks of the fields
// written (see job): d.mu for applyProfile, applyObserve, applyFault,
// applyComplete and applyRound, and j's shard lock for applyDeploy,
// applyCancel and applyComplete. applySubmit changes only a job not yet in
// the registry.

// applySubmit admits the job p records as pending and returns it. spec is
// the record's validated spec: SubmitRequest.spec of the request live, of
// the record on replay. The status is published before the registry insert,
// so the job is never findable without one.
func (d *Daemon) applySubmit(spec workload.JobSpec, p walSubmit) *job {
	spec.ID, spec.Arrival = p.ID, p.Arrival
	j := &job{Job: sim.NewJob(spec), submittedWall: p.Wall}
	d.applyDeploy(j, walDeploy{ID: p.ID, State: StatePending})
	j.status.Store(newStatusSnap(d.buildStatus(j)))
	d.reg.put(p.ID, j)
	return j
}

// applyProfile feeds the job's §3.2 pre-run samples to its speed estimator.
func (d *Daemon) applyProfile(j *job, p walProfile) {
	for _, s := range p.Samples {
		_ = j.SpeedEst.Observe(s.P, s.W, s.Speed)
	}
	j.profiled = true
}

// applyObserve moves the job to p's progress and feeds p's measurements to
// its estimators. It applies to a job cancelled in the same round too: the
// physics pass may race a cancel, live as on replay.
func (d *Daemon) applyObserve(j *job, p walObserve) {
	j.Progress = p.Progress
	j.Observe(p.PS, p.W, p.Speed, p.K, p.Loss)
}

// applyDeploy sets the job's lifecycle state and deployment: p.PS
// parameter servers and p.W workers on p.Nodes, or none unless both counts
// are positive. It is the one writer of state, Alloc, Nodes and Placed:
// applySubmit, applyCancel, applyComplete and WALApplier.Finish pass it
// states no deploy record carries. A terminal job is left alone.
func (d *Daemon) applyDeploy(j *job, p walDeploy) {
	if j.state.terminal() {
		return
	}
	placed := p.PS > 0 && p.W > 0
	j.state, j.Placed = p.State, placed
	j.Alloc, j.Nodes = core.Allocation{}, nil
	if placed {
		j.Alloc, j.Nodes = core.Allocation{PS: p.PS, Workers: p.W}, p.Nodes
	}
}

// applyFault marks the job straggling, or recovered (§5.2).
func (d *Daemon) applyFault(j *job, p walFault) { j.Straggling = p.Straggling }

// applyCancel moves a live job to StateCancelled and releases its
// deployment; a terminal job is left alone, as the live Cancel refuses it.
// The new status is patched from the previous snapshot rather than rebuilt:
// the estimation fields belong to the engine and may be mid-mutation, and
// the snapshot is immutable, so a copy-and-patch is safe.
func (d *Daemon) applyCancel(j *job, p walCancel) {
	if j.state.terminal() {
		return
	}
	d.applyDeploy(j, walDeploy{ID: p.ID, State: StateCancelled})
	st := j.status.Load().st
	st.State = StateCancelled
	st.Alloc = core.Allocation{}
	st.Nodes = nil
	j.status.Store(newStatusSnap(st))
	d.live.Add(-1)
}

// applyComplete moves a live job to StateDone, converged at p.DoneAt: its
// progress becomes its total epochs and its deployment is released.
func (d *Daemon) applyComplete(j *job, p walComplete) {
	if j.state.terminal() {
		return
	}
	d.applyObserve(j, walObserve{ID: p.ID, Progress: j.TotalEpochs})
	d.applyDeploy(j, walDeploy{ID: p.ID, State: StateDone})
	j.DoneAt = p.DoneAt
	d.live.Add(-1)
}

// applyRound commits one scheduling interval: the round count and clock
// move to p's, and the loss curves of jobs are refit in parallel before
// their statuses and the cluster snapshot are republished. The live round
// passes its active jobs, replay the jobs touched since the last round.
func (d *Daemon) applyRound(p walRound, jobs []*job) {
	d.rounds = p.Round
	d.roundsN.Store(int64(p.Round))
	d.advanceClockLocked(p.SimTime)
	d.refitLocked(jobs)
	for _, j := range jobs {
		sh := d.reg.shard(j.Spec.ID)
		sh.mu.Lock()
		j.status.Store(newStatusSnap(d.buildStatus(j)))
		sh.mu.Unlock()
	}
	d.publishClusterLocked()
}

// WALApplier replays records into a daemon: a fresh one at startup
// (ReplayWAL) or a warm standby continuously (the internal/ha follower).
// Apply and Finish are not safe for concurrent use with each other, but are
// safe against the daemon's read paths — mutations happen under the engine
// mutex and the owning shard locks, exactly like a scheduling round.
type WALApplier struct {
	d          *Daemon
	applied    uint64 // last applied sequence
	records    uint64
	duplicates uint64 // submit records for already-present IDs
	dirty      map[int]*job
	batch      []*job // dirty's jobs, for applyRound
	started    bool   // a non-checkpoint record has been applied
}

// NewWALApplier builds an applier over d.
func (d *Daemon) NewWALApplier() *WALApplier {
	return &WALApplier{d: d, dirty: make(map[int]*job)}
}

// AppliedSeq is the sequence of the last applied record.
func (a *WALApplier) AppliedSeq() uint64 { return a.applied }

// Duplicates counts submit records whose job ID already existed — the
// exactly-once violation detector across HA cutovers. Zero in a healthy log.
func (a *WALApplier) Duplicates() uint64 { return a.duplicates }

// Records counts records applied (checkpoints included).
func (a *WALApplier) Records() uint64 { return a.records }

// Apply replays one record. Records are applied in sequence order; the
// caller (Scan/ScanFrom or a tailer) guarantees contiguity. An error names
// the record; ReplayWAL adds the one "wal replay:" prefix.
func (a *WALApplier) Apply(rec wal.Record) error {
	d := a.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := a.applyLocked(rec); err != nil {
		return fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
	}
	a.applied = rec.Seq
	a.records++
	d.walReplayed.Add(1)
	return nil
}

// applyLocked decodes one record and applies it with its type's apply
// function.
func (a *WALApplier) applyLocked(rec wal.Record) error {
	d := a.d
	if rec.Type == wal.TypeCheckpoint {
		// A checkpoint is a summary of everything before it. On a fresh
		// daemon (replay starting at the checkpoint) restore it; on a warm
		// one (a tailing follower that already applied that history) it is
		// a no-op.
		if a.started || d.reg.len() != 0 || d.rounds != 0 {
			return nil
		}
		var snap Snapshot
		if err := json.Unmarshal(rec.Payload, &snap); err != nil {
			return err
		}
		return d.restoreSnapLocked(snap)
	}
	a.started = true
	switch rec.Type {
	case wal.TypeSubmit:
		var p walSubmit
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		return a.submit(p)
	case wal.TypeCancel:
		var p walCancel
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyCancel(j, p) })
	case wal.TypeProfile:
		var p walProfile
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyProfile(j, p) })
	case wal.TypeObserve:
		var p walObserve
		if err := p.decode(rec.Payload); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyObserve(j, p) })
	case wal.TypeDeploy:
		var p walDeploy
		if err := p.decode(rec.Payload); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyDeploy(j, p) })
	case wal.TypeComplete:
		var p walComplete
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyComplete(j, p) })
	case wal.TypeFault:
		var p walFault
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		return a.apply(p.ID, func(j *job) { d.applyFault(j, p) })
	case wal.TypeRound:
		var p walRound
		if err := json.Unmarshal(rec.Payload, &p); err != nil {
			return err
		}
		d.applyRound(p, a.takeDirty())
	case wal.TypeMembership:
		// Role changes don't touch job state.
	default:
		return fmt.Errorf("unknown record type %d", rec.Type)
	}
	return nil
}

// submit applies a submit record, counting one for an existing ID as a
// duplicate instead. Replay admits exactly what Submit admits.
func (a *WALApplier) submit(p walSubmit) error {
	d := a.d
	if d.reg.get(p.ID) != nil {
		a.duplicates++
		return nil
	}
	spec, err := SubmitRequest{Model: p.Model, Mode: p.Mode,
		Threshold: p.Threshold, Downscale: p.Downscale}.spec()
	if err != nil {
		return err
	}
	a.dirty[p.ID] = d.applySubmit(spec, p)
	if int64(p.ID) > d.nextID.Load() {
		d.nextID.Store(int64(p.ID))
	}
	d.live.Add(1)
	return nil
}

// apply runs f on the existing job id names, under its shard lock, and
// marks the job dirty for the next round record's republish. Apply
// prefixes the error with the record.
func (a *WALApplier) apply(id int, f func(*job)) error {
	j := a.d.reg.get(id)
	if j == nil {
		return fmt.Errorf("unknown job %d", id)
	}
	a.dirty[id] = j
	sh := a.d.reg.shard(id)
	sh.mu.Lock()
	f(j)
	sh.mu.Unlock()
	return nil
}

// takeDirty returns the jobs marked dirty since the last call, unmarked.
func (a *WALApplier) takeDirty() []*job {
	a.batch = a.batch[:0]
	for _, j := range a.dirty {
		a.batch = append(a.batch, j)
	}
	clear(a.dirty)
	return a.batch
}

// Finish normalizes the applied state for serving, and Restore ends with it
// too: replayed or restored running jobs have no real deployment, so they
// restart as waiting and the first round after takeover re-places them
// (§5.4). This is the only place that step happens. Finish also refits
// every job and republishes its status and the cluster snapshot.
func (a *WALApplier) Finish() {
	d := a.d
	d.mu.Lock()
	defer d.mu.Unlock()
	d.refitLocked(d.reg.collect(func(*job) bool { return true }))
	var live int64
	d.reg.lockAll()
	for i := range d.reg.shards {
		for id, j := range d.reg.shards[i].jobs {
			if j.state == StateRunning {
				d.applyDeploy(j, walDeploy{ID: id, State: StateWaiting})
			}
			if !j.state.terminal() {
				live++
			}
			j.status.Store(newStatusSnap(d.buildStatus(j)))
		}
	}
	d.reg.unlockAll()
	d.live.Store(live)
	clear(a.dirty)
	d.publishClusterLocked()
}

// WALReplayStats summarizes one ReplayWAL.
type WALReplayStats struct {
	Records    int    // records applied
	AppliedSeq uint64 // last applied sequence
	Checkpoint uint64 // sequence of the anchoring checkpoint (0 = genesis)
	Duplicates uint64 // exactly-once violations detected (should be 0)
	Torn       bool   // the log ended in a torn tail (crash evidence)
}

// ReplayWAL rebuilds a freshly constructed daemon from the log in dir:
// restore the latest checkpoint, then re-apply every record after it. The
// daemon must not have served yet. A torn tail is not an error — it is the
// expected shape of a crash — and is reported in the stats; opening the
// directory for writing afterwards (wal.Open) truncates it.
func (d *Daemon) ReplayWAL(dir string) (WALReplayStats, error) {
	ckpt, err := wal.LastCheckpoint(dir)
	if err != nil {
		return WALReplayStats{}, fmt.Errorf("wal replay: %w", err)
	}
	var after uint64
	if ckpt > 0 {
		after = ckpt - 1
	}
	a := d.NewWALApplier()
	res, err := wal.ScanFrom(dir, after, a.Apply)
	if err != nil {
		return WALReplayStats{}, fmt.Errorf("wal replay: %w", err)
	}
	a.Finish()
	return WALReplayStats{
		Records:    res.Records,
		AppliedSeq: a.applied,
		Checkpoint: ckpt,
		Duplicates: a.duplicates,
		Torn:       res.Torn,
	}, nil
}

// WALDecodePayload renders one record payload for optimus-trace. It lives
// here (not in the trace tool) so the payload schemas stay private. Binary
// observe and deploy payloads decode to the structs JSON-era logs held, so
// they print as the same JSON.
func WALDecodePayload(rec wal.Record) (any, error) {
	var v any
	switch rec.Type {
	case wal.TypeObserve:
		var p walObserve
		return &p, p.decode(rec.Payload)
	case wal.TypeDeploy:
		var p walDeploy
		return &p, p.decode(rec.Payload)
	case wal.TypeSubmit:
		v = &walSubmit{}
	case wal.TypeCancel:
		v = &walCancel{}
	case wal.TypeProfile:
		v = &walProfile{}
	case wal.TypeComplete:
		v = &walComplete{}
	case wal.TypeFault:
		v = &walFault{}
	case wal.TypeRound:
		v = &walRound{}
	case wal.TypeMembership:
		v = &walMembership{}
	case wal.TypeCheckpoint:
		v = &Snapshot{}
	default:
		return nil, fmt.Errorf("serve: unknown WAL record type %d", rec.Type)
	}
	dec := json.NewDecoder(bytes.NewReader(rec.Payload))
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	return v, nil
}
