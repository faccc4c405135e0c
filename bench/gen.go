package main

import (
	"math"
	"math/rand"

	"optimus/internal/serve"
	"optimus/internal/speedfit"
	"optimus/internal/workload"
)

// jobGen is the seeded job stream every workload draws from: a random zoo
// model, sync or async, and a convergence threshold in [0.01, 0.05] (§6.1).
//
// The draw is stratified, not independent: every block of len(zoo)·2 jobs
// holds each (model, mode) pair once, in seeded order, and a pair's
// thresholds walk a low-discrepancy sequence over the range. The stream has
// the same marginals as independent draws, but two seeds now differ in
// order and arrival times and not in how heavy the mix happens to be.
// Independent draws moved replay wall time by ±20 % and average JCT by
// ±10 % between seeds, far more than any bound could resolve.
type jobGen struct {
	rng   *rand.Rand
	zoo   []*workload.Model
	block []int
	n     int
}

func newJobGen(seed int64) *jobGen {
	return &jobGen{rng: rand.New(rand.NewSource(seed)), zoo: workload.Zoo()}
}

const goldenRatio = 0.6180339887498949

// next returns the stream's next job. ID, Arrival and Downscale are left to
// the caller.
func (g *jobGen) next() workload.JobSpec {
	k := 2 * len(g.zoo)
	if g.n%k == 0 {
		g.block = g.rng.Perm(k)
	}
	pair := g.block[g.n%k]
	_, frac := math.Modf(float64(g.n/k)*goldenRatio + float64(pair)/float64(k))
	g.n++
	return workload.JobSpec{
		Model:     g.zoo[pair/2],
		Mode:      speedfit.Mode(pair % 2),
		Threshold: 0.01 + 0.04*frac,
	}
}

// submitRequest is next() in the daemon's wire form.
func (g *jobGen) submitRequest() serve.SubmitRequest {
	s := g.next()
	return serve.SubmitRequest{Model: s.Model.Name, Mode: s.Mode.String(),
		Threshold: s.Threshold}
}

// replayTrace is the replay workload's input: n stream jobs with Poisson
// arrivals over the horizon and the paper's dataset downscale.
func replayTrace(seed int64, n int, horizon float64) []workload.JobSpec {
	g := newJobGen(seed)
	jobs := make([]workload.JobSpec, n)
	for i := range jobs {
		jobs[i] = g.next()
	}
	arrivals := workload.PoissonArrivals(g.rng, n, horizon)
	for i := range jobs {
		jobs[i].ID = i
		jobs[i].Arrival = arrivals[i]
		jobs[i].Downscale = 0.1
	}
	return jobs
}

// opKind is one HTTP operation class of the serve-* traffic mixes.
type opKind uint8

const (
	opStatus opKind = iota
	opSubmit
	opDelete
	numOpKinds
)

func (k opKind) String() string { return [...]string{"status", "submit", "delete"}[k] }

// mix is a traffic mix in percent, indexed by opKind.
type mix [numOpKinds]int

// op is one scheduled operation. Key selects the target of a status or
// delete among the IDs live when the op is sent (an index drawn by the key
// distribution, so a schedule does not depend on what the daemon answered);
// Body is a submit's request.
type op struct {
	Kind opKind
	Key  int
	Body serve.SubmitRequest
	// DueNs is the send time of a paced (open-loop) op, from phase start.
	DueNs int64
}

// keySpace is how many ranks the zipfian draw spans; an op's Key is reduced
// modulo the live-set size when it is sent.
const keySpace = 1 << 16

// opStream is one client's seeded operation schedule. Like the job stream
// it is stratified: every block of 100 ops holds exactly the mix's share of
// each class, in seeded order. With independent draws the live set does a
// random walk (±230 jobs around 200 over a serve-write run), and since the
// engine's rounds cost what the live set weighs, throughput moved 16 %
// between seeds for that reason alone.
type opStream struct {
	rng   *rand.Rand
	jobs  *jobGen
	mix   mix
	block []opKind // the current block's classes, consumed from the end
	keys  workload.KeyDist
	// rate > 0 paces the stream as a Poisson process of that many ops/s.
	rate  float64
	dueNs float64
}

func newOpStream(seed int64, client int, m mix, rate float64) *opStream {
	s := seed*1000003 + int64(client)*7919 + 17
	keys, err := workload.NewKeyDist("zipfian", 0)
	if err != nil {
		panic(err) // unreachable: "zipfian" is a known distribution
	}
	return &opStream{rng: rand.New(rand.NewSource(s)), jobs: newJobGen(s + 1),
		mix: m, keys: keys, rate: rate}
}

func (s *opStream) next() op {
	if len(s.block) == 0 {
		for k, share := range s.mix {
			for i := 0; i < share; i++ {
				s.block = append(s.block, opKind(k))
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	o := op{Kind: s.block[len(s.block)-1]}
	s.block = s.block[:len(s.block)-1]
	if o.Kind == opSubmit {
		o.Body = s.jobs.submitRequest()
	} else {
		o.Key = s.keys.Draw(s.rng, keySpace)
	}
	if s.rate > 0 {
		s.dueNs += s.rng.ExpFloat64() / s.rate * 1e9
		o.DueNs = int64(s.dueNs)
	}
	return o
}
