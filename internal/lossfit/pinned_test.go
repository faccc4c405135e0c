package lossfit

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// pinnedTrajectory is one seeded loss trajectory whose refit results were
// recorded bit for bit at the commit before the NNLS factor cache landed.
// digest folds the Float64bits of B0/B1/B2/Residual/MaxLoss (and the error
// flag) of the Fit after every Add; final is the last Fit's B0/B1/B2/Residual.
type pinnedTrajectory struct {
	kind   string
	seed   int64
	digest uint64
	final  [4]uint64
}

// pinnedKinds are the trajectory shapes the table covers: noisy curves, curves
// with spikes and dips the outlier filter must handle, flat curves (β0 → 0,
// where most candidates fail), and curves whose tail reaches the asymptote
// threshold so rows are skipped for some β2 candidates.
var pinnedKinds = []string{"noisy", "outliers", "flat", "skipped"}

// genTrajectory builds the loss samples of one pinned trajectory. Changing it
// invalidates the table below.
func genTrajectory(kind string, seed int64) []Point {
	r := rand.New(rand.NewSource(seed))
	n := 40 + r.Intn(60)
	b0 := 0.01 + r.Float64()*0.3
	b1 := 0.5 + r.Float64()*2
	b2 := r.Float64() * 0.2
	pts := make([]Point, n)
	for i := range pts {
		k := float64(i + 1)
		l := 1/(b0*k+b1) + b2
		switch kind {
		case "noisy":
			l *= 1 + 0.05*r.NormFloat64()
		case "outliers":
			l *= 1 + 0.02*r.NormFloat64()
			switch r.Intn(10) {
			case 0:
				l *= 1 + 4*r.Float64() // spike
			case 1:
				l *= 0.2 // dip
			}
		case "flat":
			l = 1/(1e-7*k+1) + b2 + 1e-4*r.NormFloat64()
		case "skipped":
			// The tail crosses the 1e-9 transform threshold: negative losses
			// (the kept-row set grows along the β2 grid), exact zeros (rows
			// dropped for every candidate), or a tiny positive floor (the
			// kept-row set shrinks along the grid).
			tail := 1/(b0*k+b1) - 1/(b0*float64(n)/2+b1)
			switch seed % 3 {
			case 0:
				l = tail + 0.002*r.NormFloat64()
			case 1:
				l = math.Max(tail, 0)
			case 2:
				l = math.Max(tail, 1e-8*(1+r.Float64()))
			}
		}
		pts[i] = Point{K: k, Loss: l}
	}
	return pts
}

// replayTrajectory feeds pts one Add at a time into a fresh Fitter (the
// production refit path: one persistent scratch and workspace), fitting after
// every Add, and returns the digest and last model's bits.
func replayTrajectory(t *testing.T, pts []Point, maxPoints int) (uint64, [4]uint64) {
	f := NewFitter()
	f.MaxPoints = maxPoints
	h := fnv.New64a()
	var final [4]uint64
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i, p := range pts {
		if err := f.Add(p.K, p.Loss); err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			continue
		}
		m, err := f.Fit()
		if err != nil {
			put(1)
			continue
		}
		final = [4]uint64{math.Float64bits(m.B0), math.Float64bits(m.B1),
			math.Float64bits(m.B2), math.Float64bits(m.Residual)}
		for _, v := range final {
			put(v)
		}
		put(math.Float64bits(m.MaxLoss))
	}
	return h.Sum64(), final
}

// pinnedMaxPoints compacts the outlier trajectories early so the table also
// covers refits across a compaction.
func pinnedMaxPoints(kind string) int {
	if kind == "outliers" {
		return 32
	}
	return 4096
}

// TestFitBitsPinned requires every refit of every pinned trajectory to
// reproduce, bit for bit, the models the pre-factor-cache solver produced:
// caching the QR factors across β2 candidates and refits must change how
// much work a refit does, never what it returns.
func TestFitBitsPinned(t *testing.T) {
	if len(pinnedTable) < 30 {
		t.Fatalf("pinned table has %d trajectories, want ≥ 30", len(pinnedTable))
	}
	for _, want := range pinnedTable {
		digest, final := replayTrajectory(t, genTrajectory(want.kind, want.seed), pinnedMaxPoints(want.kind))
		if digest != want.digest || final != want.final {
			got := pinnedTrajectory{want.kind, want.seed, digest, final}
			t.Errorf("%s seed %d: refit bits changed\n got  %s\n want %s",
				want.kind, want.seed, pinnedString(got), pinnedString(want))
		}
	}
}

// TestRefitAllocationFree: once its scratch is sized, a refit allocates
// nothing, including when every refit sees a new design matrix (the factor
// cache misses on the first β2 candidate and rewrites its key and factors).
func TestRefitAllocationFree(t *testing.T) {
	a, b := genTrajectory("noisy", 1), genTrajectory("skipped", 3)
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	var s fitScratch
	for _, pts := range [][]Point{a, b} {
		if _, err := s.fitPoints(pts, 5); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		pts := a
		if i%2 == 1 {
			pts = b
		}
		i++
		if _, err := s.fitPoints(pts, 5); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed refit allocated %.1f times per run, want 0", allocs)
	}
}

func pinnedString(p pinnedTrajectory) string {
	return fmt.Sprintf("{%q, %d, %#x, [4]uint64{%#x, %#x, %#x, %#x}},",
		p.kind, p.seed, p.digest, p.final[0], p.final[1], p.final[2], p.final[3])
}

// pinnedTable was recorded at the parent of the factor-cache change
// (d50a26d) by replaying every trajectory below through replayTrajectory.
var pinnedTable = []pinnedTrajectory{
	{"noisy", 1, 0x2ab369230ee3fcd3, [4]uint64{0x3fc4751d6fed8aa1, 0x3ff05fdb08f8d6d9, 0x3fc2f0f345265c97, 0x3f8eb7bdfa312b31}},
	{"noisy", 2, 0x9893484ae21562a7, [4]uint64{0x3fbe99e71f1fdd98, 0x3feb48e18c458d8a, 0x3f9068a526369cf0, 0x3f8b548070a4a3ed}},
	{"noisy", 3, 0xa84da886e85534e9, [4]uint64{0x3fbdd9e0b9575e3c, 0x3ff3a5ea9356c09c, 0x3fd2837f6fcb95a1, 0x3f9ba07244799166}},
	{"noisy", 4, 0xd382cd7f4d89cf93, [4]uint64{0x3fa2621590244006, 0x3ff36ba2df0c4874, 0x3fc407e7ec2b2c11, 0x3f970997b931bc34}},
	{"noisy", 5, 0x61a5f846add21f50, [4]uint64{0x3fbe11faaba4a069, 0x3ff4daf82616d077, 0x3fd08128ffba888b, 0x3f9c8de7db835ed2}},
	{"noisy", 6, 0xfb2a81868116711f, [4]uint64{0x3fc1f10a127b0ecf, 0x3feebcc93e340ca8, 0x3fb92cb6f2611d2f, 0x3f8ed5ef64203358}},
	{"noisy", 7, 0xde38f9ddeed4b2e2, [4]uint64{0x3fb705a15c046b93, 0x3ff0c7ea4a45719f, 0x3fc5b87c75707f3a, 0x3f97d372ed3c6b39}},
	{"noisy", 8, 0xe2ef236de17e1f42, [4]uint64{0x3fb769e29f5857e9, 0x3fed93ae865f96c9, 0x3fae02ed47fa8034, 0x3f9015295db617b9}},
	{"outliers", 1, 0xa9999531260bdba2, [4]uint64{0x3f98b3389aa7ddfa, 0x3fea2978fcd2b574, 0x0, 0x3fc17e134088a41f}},
	{"outliers", 2, 0xc5e14e42b9dc5b00, [4]uint64{0x3fbbe6faa2cb28e0, 0x3fc286af530d5e0f, 0x3fb3b5498482aed7, 0x3f8748357239a1f7}},
	{"outliers", 3, 0x4ea42c650eafdaa0, [4]uint64{0x3fc4d55474c7bac6, 0x3feb417f6e0a4c87, 0x3fce1c921b3bc12d, 0x3fb2e026469af067}},
	{"outliers", 4, 0x977ebb3f784ce83c, [4]uint64{0x3f921ba5bceb21e6, 0x3fe88e7a1169799f, 0x0, 0x3fbd48262af6c4ae}},
	{"outliers", 5, 0x3552ea41f7503869, [4]uint64{0x3fb78b05aeebdfc5, 0x3ff3c49fe0e811af, 0x3fd02097ae430d90, 0x3fa464db3daa57b8}},
	{"outliers", 6, 0x180d12a8f77e6fe8, [4]uint64{0x3fb7c53e1cdf8451, 0x0, 0x3f9a9af8b9a6563d, 0x3fc5e65507008721}},
	{"outliers", 7, 0x4cba96327a10f284, [4]uint64{0x3f9e0a1dad500d57, 0x3fea7dcaa9d41bf2, 0x0, 0x3fbd741aecbec6bc}},
	{"outliers", 8, 0x7daa4f21fdb4917d, [4]uint64{0x3faa3501d77e1697, 0x3fefd23d0b53abaf, 0x3fa02f335efa3357, 0x3fbe43754e19d69c}},
	{"flat", 1, 0x1a6474e7e228f7d8, [4]uint64{0x3f52a1995a89eb2c, 0x404455e295ac83c6, 0x3fef35cced907de9, 0x3f104fd0898bbdb4}},
	{"flat", 2, 0xea5b8ae66bc6312f, [4]uint64{0x3e987ee099d64e08, 0x3ff0007e6061566c, 0x0, 0x3f149f660f935aa1}},
	{"flat", 3, 0xdb4e73ce2d1f4cb0, [4]uint64{0x3f622b522beb4422, 0x404451e49e94cd4f, 0x3fef358f0f9541ea, 0x3f1006db5e597b2a}},
	{"flat", 4, 0x92d4368819443b5c, [4]uint64{0x3e8ec3cce1016a7c, 0x3ff000713f689a3c, 0x0, 0x3f0a84ab48bd05b0}},
	{"flat", 5, 0xf6ab2b97add74eaa, [4]uint64{0x3eff93f37bb20206, 0x402479668070d268, 0x3fecde9a819cd9d4, 0x3f104d0ccb96378a}},
	{"flat", 6, 0x1803e2e47730cfe0, [4]uint64{0x3e9059e73a718b2a, 0x3ff0009a680eaa49, 0x0, 0x3f11b0e1f782a033}},
	{"flat", 7, 0x20f58277eb103e2d, [4]uint64{0x3f5430cdabfaf5a5, 0x40445d68e32a3a0e, 0x3fef35682769e6de, 0x3f0f08295db3c104}},
	{"flat", 8, 0xa583b0f084366166, [4]uint64{0x3e6948bc28316255, 0x3ff0005f88785072, 0x0, 0x3f0ee98da4d733ca}},
	{"skipped", 1, 0x8ff085eeb06c2db2, [4]uint64{0x3fff81e4823a3b5c, 0x0, 0x0, 0x3fc694a6d89ec6ce}},
	{"skipped", 2, 0x369edd2de5ef776c, [4]uint64{0x4131b40265c1c3d0, 0x0, 0x0, 0x3fce56b5c8ef35b5}},
	{"skipped", 3, 0x9eb2ddf8e8830a99, [4]uint64{0x3fe50ce6209674a7, 0x0, 0xbf94f223c695649b, 0x3fc6bff2e43e1ac9}},
	{"skipped", 4, 0x53e435efa4e1790a, [4]uint64{0x3fe6e908861f272f, 0x0, 0x0, 0x3fcb0e47fc23c8e2}},
	{"skipped", 5, 0x9c08a2e3cb907fa8, [4]uint64{0x41165f1177c41e84, 0x0, 0x0, 0x3fd51a3497d3fc78}},
	{"skipped", 6, 0xcf83e61ae5c0f683, [4]uint64{0x3fe8d8a23e2d4a06, 0x0, 0xbfa67d7d36c1d423, 0x3fc175bdea42e2a3}},
	{"skipped", 7, 0xff56ab55341895db, [4]uint64{0x3feb6d4a86e25fc7, 0x0, 0x0, 0x3fc555a9c8a2f55c}},
	{"skipped", 8, 0xee393822d759b101, [4]uint64{0x41147ea6fa053a9a, 0x0, 0x0, 0x3fd20f352eae662d}},
}
