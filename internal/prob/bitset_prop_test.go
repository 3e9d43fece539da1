package prob

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property tests for the bitset layer under the flat compilation core. The
// packed planes are the part of the core where a single off-by-one word or a
// stale bit silently corrupts every marginal downstream, so the layer is
// pinned against naive reference models with testing/quick rather than
// hand-picked cases.

// quickCfg sizes the random exploration; the bit indices below are reduced
// modulo small plane sizes so word boundaries (bit 63/64) are hit often.
var quickCfg = &quick.Config{MaxCount: 400}

// TestBitsetQuickModel checks set/clear/setTo/get against a map-based
// reference model over arbitrary operation sequences.
func TestBitsetQuickModel(t *testing.T) {
	f := func(nBits uint8, ops []uint16) bool {
		n := int(nBits)%130 + 1 // 1..130 bits: 1–3 words, crossing boundaries
		b := make(bitset, bitsetWords(n))
		ref := make(map[int32]bool)
		for _, op := range ops {
			i := int32(int(op>>2) % n)
			switch op & 3 {
			case 0:
				b.set(i)
				ref[i] = true
			case 1:
				b.clear(i)
				ref[i] = false
			case 2:
				b.setTo(i, op&4 != 0)
				ref[i] = op&4 != 0
			case 3:
				if b.get(i) != ref[i] {
					return false
				}
			}
		}
		for i := int32(0); i < int32(n); i++ {
			if b.get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestBval3QuickRoundTrip checks the two-plane three-valued encoding: every
// setBval3 write reads back via bval3, and the planes stay mutually
// exclusive (a node is never decided both true and false).
func TestBval3QuickRoundTrip(t *testing.T) {
	f := func(nBits uint8, writes []uint16) bool {
		n := int(nBits)%130 + 1
		decT, decF := make(bitset, bitsetWords(n)), make(bitset, bitsetWords(n))
		ref := make(map[int32]int8)
		vals := [3]int8{bUnknown, bTrue, bFalse}
		for _, raw := range writes {
			i := int32(int(raw>>2) % n)
			v := vals[int(raw&3)%3]
			setBval3(decT, decF, i, v)
			ref[i] = v
		}
		for w := range decT {
			if decT[w]&decF[w] != 0 {
				return false // decided true AND false
			}
		}
		for i := int32(0); i < int32(n); i++ {
			want, ok := ref[i]
			if !ok {
				want = bUnknown
			}
			if bval3(decT, decF, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// flatSig is the semantically visible slice of an fstate: the truth and open
// planes plus every node's numeric abstract and aggregate. Bookkeeping that
// is allowed to go stale across undo (trailedAt dedup stamps, queued flags)
// is deliberately excluded.
type flatSig struct {
	decT, decF, open bitset
	vkf              []uint8
	lo, hi           []float64
	cnt              []int32
	sums             []sumAgg
	tMasked          []bool
	openTargets      int
}

func captureSig(s *fstate) flatSig {
	sig := flatSig{
		decT:        append(bitset(nil), s.decT...),
		decF:        append(bitset(nil), s.decF...),
		open:        append(bitset(nil), s.open...),
		sums:        append([]sumAgg(nil), s.sums...),
		tMasked:     append([]bool(nil), s.tMasked...),
		openTargets: s.openTargets,
	}
	for i := range s.ab {
		a := &s.ab[i]
		sig.vkf = append(sig.vkf, a.vkf)
		sig.lo = append(sig.lo, a.lo)
		sig.hi = append(sig.hi, a.hi)
		sig.cnt = append(sig.cnt, a.cnt)
	}
	return sig
}

func (sig *flatSig) equal(o flatSig) string {
	for w := range sig.decT {
		if sig.decT[w] != o.decT[w] || sig.decF[w] != o.decF[w] {
			return fmt.Sprintf("truth planes differ at word %d", w)
		}
		if sig.open[w] != o.open[w] {
			return fmt.Sprintf("open plane differs at word %d", w)
		}
	}
	for i := range sig.vkf {
		if sig.vkf[i] != o.vkf[i] || sig.lo[i] != o.lo[i] || sig.hi[i] != o.hi[i] || sig.cnt[i] != o.cnt[i] {
			return fmt.Sprintf("abstract of node %d differs", i)
		}
	}
	for i := range sig.sums {
		if sig.sums[i] != o.sums[i] {
			return fmt.Sprintf("sum aggregate %d differs", i)
		}
	}
	for i := range sig.tMasked {
		if sig.tMasked[i] != o.tMasked[i] {
			return fmt.Sprintf("target mask %d differs", i)
		}
	}
	if sig.openTargets != o.openTargets {
		return fmt.Sprintf("openTargets %d vs %d", sig.openTargets, o.openTargets)
	}
	return ""
}

// TestFlatSnapshotRestoreProperty drives full fstates over random networks:
// for a spread of seeds it asserts that (a) trail undo restores the exact
// pre-assignment state, and (b) a forkSnap taken mid-branch adopts back to
// the identical state even after further assignments mutated the live
// planes — the two restore paths the distributed runner depends on for
// bit-identical job replay.
func TestFlatSnapshotRestoreProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			net := randomNet(rng, 3+rng.Intn(4), 1+rng.Intn(3))
			types, err := net.Types()
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Strategy: Exact}.withDefaults()
			book := newBoundsBook(len(net.Targets), 0)
			s := newFstate(net, types, opts, book, false)
			s.attachRun(computeOrder(net, opts), time.Time{}, nil, nil)
			s.initAll()

			base := captureSig(s)

			// (a) assign a random prefix of the variable order, undo, and
			// require the signature back bit for bit.
			mark := s.trailMark()
			assignPrefix(s, rng)
			if s.trailMark() == mark {
				t.Skip("no variable left undecided after init")
			}
			s.undoTo(mark)
			after := captureSig(s)
			if d := base.equal(after); d != "" {
				t.Fatalf("undo did not restore init state: %s", d)
			}

			// (b) fork snapshot round-trip: mutate past the snapshot, adopt
			// it back, and require the snapshotted signature. Adoption
			// consumes a snapshot and frees the replaced block, so a second
			// fork of the same point, adopted after further mutation into a
			// recycled block, must restore it as well.
			assignPrefix(s, rng)
			snap, snap2 := s.forkSnap(), s.forkSnap()
			want := captureSig(s)
			assignPrefix(s, rng)
			s.adoptSnap(snap)
			got := captureSig(s)
			if d := want.equal(got); d != "" {
				t.Fatalf("adoptSnap did not restore forked state: %s", d)
			}
			assignPrefix(s, rng)
			s.adoptSnap(snap2)
			got2 := captureSig(s)
			if d := want.equal(got2); d != "" {
				t.Fatalf("second adoptSnap drifted: %s", d)
			}
		})
	}
}

// assignPrefix pushes a random run of assignments through the walker's own
// nextVar filter, mirroring how expand drives the core.
func assignPrefix(s *fstate, rng *rand.Rand) {
	oi := 0
	for steps := 1 + rng.Intn(3); steps > 0; steps-- {
		ni, x, ok := s.nextVar(oi)
		if !ok {
			return
		}
		oi = ni + 1
		s.assign(x, rng.Intn(2) == 0, 0.5)
	}
}
