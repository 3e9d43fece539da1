package main

import (
	"fmt"
	"math/rand"

	"enframe/internal/data"
	"enframe/internal/server"
	"enframe/internal/stream"
)

// Every input the program sees is generated here from -seed. The schedules
// are pure functions of (seed, caller, position): the same seed replays the
// same bytes on every commit, and a different seed draws different data.

// Streams separate the random draws of the different schedules so that no
// two of them share a data seed.
const (
	streamBatch = iota + 1
	streamHybrid
	streamRunHot
	streamRunCold
	streamRunOrder
	streamWhatif
	streamSession
	streamPush
)

// derive maps (seed, stream, index) to a positive data seed below 2^40 with
// the splitmix64 finaliser.
func derive(seed int64, stream, i uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + i + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>24) | 1
}

// clusterRequest is one clustering task in the request form shared by
// /v1/run and server.BuildSpec: k = 2, lineage groups of 4, and the CLI
// defaults for everything not named.
func clusterRequest(program, scheme string, n, vars, iter int, dataSeed int64, target string) server.RunRequest {
	return server.RunRequest{
		Program: program,
		Data:    server.DataSpec{N: n, Scheme: scheme, Vars: vars, L: 8, M: 12, Group: 4, Seed: dataSeed},
		Params:  server.ParamSpec{K: 2, Iter: iter},
		Targets: []string{target},
	}
}

// The three correlation schemes of the paper's Figs. 6–7, in the order the
// batch and hybrid workloads visit them.
var schemes = [3]string{"positive", "conditional", "mutex"}

// batchRound is one batch-exact operation: four cold exact runs on one fresh
// data seed — k-medoids under each correlation scheme, then k-means with the
// cluster-membership targets.
func batchRound(seed int64, round int) [4]server.RunRequest {
	ds := derive(seed, streamBatch, uint64(round))
	var out [4]server.RunRequest
	for i, scheme := range schemes {
		out[i] = clusterRequest("kmedoids", scheme, 24, 10, 3, ds, "Centre[")
	}
	out[3] = clusterRequest("kmeans", "positive", 24, 10, 3, ds, "InCl[")
	return out
}

// hybridRound is the three artifacts of one compile-hybrid operation: one per
// correlation scheme, on a fresh data seed every round. n = 24 rather than a
// larger network so that a window holds well over 200 rounds: hybrid compile
// time is heavy-tailed across data seeds (CV ≈ 0.3 under the positive scheme),
// and only many distinct instances make a run's p90 steady from seed to seed.
func hybridRound(seed int64, round int) [3]server.RunRequest {
	ds := derive(seed, streamHybrid, uint64(round))
	var out [3]server.RunRequest
	for i, scheme := range schemes {
		out[i] = clusterRequest("kmedoids", scheme, 24, 16, 3, ds, "Centre[")
	}
	return out
}

// runHotKeys is the hot set of serve-run-mixed: enough keys that p50 is not a
// property of which ones a seed drew, few enough that the server's 64-entry
// LRU never evicts one. Every caller walks the whole set in each pass, so
// between two uses of a key lie at most two passes — the 23 other hot keys
// and some 24 cold ones, 47 entries — and the misses are the cold fifth and
// nothing else (TestHotSetSurvivesTheLRU replays the schedule to check).
const runHotKeys = 24

func runRequest(dataSeed int64) server.RunRequest {
	return clusterRequest("kmedoids", "positive", 16, 8, 2, dataSeed, "Centre[")
}

// runOp is one scheduled /v1/run request; Hot is the hot-key index or -1
// for a never-repeated cold key.
type runOp struct {
	Hot int
	Req server.RunRequest
}

// runSchedule generates one caller's /v1/run requests: in every block of
// five exactly one is cold, at a drawn position, and the hot requests walk
// the hot set in freshly shuffled passes.
type runSchedule struct {
	seed    int64
	caller  int
	rng     *rand.Rand
	pass    []int
	pos     int
	coldPos int
	cold    uint64
}

func newRunSchedule(seed int64, caller int) *runSchedule {
	return &runSchedule{
		seed:   seed,
		caller: caller,
		rng:    rand.New(rand.NewSource(derive(seed, streamRunOrder, uint64(caller)))),
	}
}

func (s *runSchedule) next() runOp {
	if s.pos%5 == 0 {
		s.coldPos = s.rng.Intn(5)
	}
	cold := s.pos%5 == s.coldPos
	s.pos++
	if cold {
		s.cold++
		// Callers draw cold keys from disjoint index ranges.
		i := uint64(s.caller)<<32 | s.cold
		return runOp{Hot: -1, Req: runRequest(derive(s.seed, streamRunCold, i))}
	}
	if len(s.pass) == 0 {
		s.pass = s.rng.Perm(runHotKeys)
	}
	hot := s.pass[0]
	s.pass = s.pass[1:]
	return runOp{Hot: hot, Req: runRequest(derive(s.seed, streamRunHot, uint64(hot)))}
}

// whatifArtifacts is the hot set of whatif-sweep; every artifact's circuit
// is traced in set-up, so the window holds no compilation at all.
const whatifArtifacts = 16

// whatifSteps is the sweep grid of one /v1/whatif request.
const whatifSteps = 32

func whatifBase(seed int64, a int) server.RunRequest {
	return clusterRequest("kmedoids", "positive", 24, 10, 3, derive(seed, streamWhatif, uint64(a)), "Centre[")
}

// whatifOp names the artifact of a caller's i-th sweep and the pass it
// belongs to: callers start half the hot set apart, and every pass over the
// hot set moves on to each artifact's next input variable.
func whatifOp(caller, i int) (artifact, pass int) {
	j := i + caller*whatifArtifacts/2
	return j % whatifArtifacts, j / whatifArtifacts
}

func whatifRequest(base server.RunRequest, variable string) server.WhatifRequest {
	return server.WhatifRequest{
		Program: base.Program,
		Data:    base.Data,
		Params:  base.Params,
		Targets: base.Targets,
		Var:     variable,
		Steps:   whatifSteps,
	}
}

// streamConfig is the session one stream-push-mixed caller owns: 8 window
// segments of 12 tuples, lineage groups of 2 (six input variables a segment).
func streamConfig(seed int64, caller int) stream.Config {
	return stream.Config{
		Program: "kmedoids", K: 2, Iter: 2,
		Segments: 8, SegmentN: 12, Group: 2,
		Seed: derive(seed, streamSession, uint64(caller)),
	}
}

// Push kinds, in the order pushKind cycles through them.
const (
	pushProb    = "prob"
	pushStruct  = "struct"
	pushAdvance = "advance"
)

// pushKind fixes the traffic mix of stream-push-mixed by position: of every
// ten pushes the fifth and tenth are structural and the rest probability-
// only, and every fiftieth push slides the window (an advance re-grounds and
// re-traces one segment, like the other structural pushes).
func pushKind(i int) string {
	switch {
	case i%50 == 49:
		return pushAdvance
	case i%5 == 4:
		return pushStruct
	}
	return pushProb
}

// windowModel is what a client knows about one live window of its session:
// the variables and tuples it may address.
type windowModel struct {
	id     int64
	vars   []string
	tuples []int
	nextID int
}

// pushSchedule generates one session's delta batches while mirroring the
// session's addressable state client-side, so that every delta it emits is
// valid and no push is ever refused.
type pushSchedule struct {
	rng        *rand.Rand
	seed       int64
	fresh      windowModel // shape of a window as the feed admits it
	windows    []windowModel
	nextWindow int64
	seq        uint64
	n          int
	turn       int
}

// newPushSchedule starts from the windows a create response lists; all of
// them are fresh from the feed, and later admissions have the same shape.
func newPushSchedule(seed int64, caller int, created []server.StreamWindow, seq uint64) (*pushSchedule, error) {
	if len(created) == 0 {
		return nil, fmt.Errorf("stream create listed no windows")
	}
	s := &pushSchedule{
		rng:  rand.New(rand.NewSource(derive(seed, streamPush, uint64(caller)))),
		seed: derive(seed, streamPush, uint64(caller)+callers),
		seq:  seq,
	}
	for _, w := range created {
		s.windows = append(s.windows, windowModel{
			id:     w.Window,
			vars:   append([]string(nil), w.Vars...),
			tuples: append([]int(nil), w.Tuples...),
			nextID: len(w.Tuples),
		})
	}
	last := s.windows[len(s.windows)-1]
	s.fresh = windowModel{vars: append([]string(nil), last.vars...), tuples: append([]int(nil), last.tuples...), nextID: last.nextID}
	s.nextWindow = last.id + 1
	return s, nil
}

// next returns the kind, base sequence number and deltas of the next push.
func (s *pushSchedule) next() (kind string, baseSeq uint64, deltas []stream.Delta) {
	kind = pushKind(s.n)
	s.n++
	switch kind {
	case pushProb:
		for j := 0; j < 4; j++ {
			w := &s.windows[s.rng.Intn(len(s.windows))]
			p := 0.05 + 0.9*s.rng.Float64()
			win := w.id
			deltas = append(deltas, stream.Delta{Op: stream.OpProb, Window: &win, Var: w.vars[s.rng.Intn(len(w.vars))], P: &p})
		}
	case pushStruct:
		w := &s.windows[s.turn%len(s.windows)]
		s.turn++
		win := w.id
		p := 0.5 + 0.3*s.rng.Float64()
		pos := data.Points(1, derive(s.seed, streamPush, uint64(s.n)))[0]
		deltas = []stream.Delta{
			{Op: stream.OpDelete, Window: &win, ID: w.tuples[0]},
			{Op: stream.OpInsert, Window: &win, Pos: []float64{pos[0], pos[1]}, P: &p},
		}
		w.tuples = append(w.tuples[1:], w.nextID)
		w.vars = append(w.vars, fmt.Sprintf("+v%d", w.nextID))
		w.nextID++
	case pushAdvance:
		deltas = []stream.Delta{{Op: stream.OpAdvance, N: 1}}
		fresh := windowModel{
			id:     s.nextWindow,
			vars:   append([]string(nil), s.fresh.vars...),
			tuples: append([]int(nil), s.fresh.tuples...),
			nextID: s.fresh.nextID,
		}
		s.windows = append(s.windows[1:], fresh)
		s.nextWindow++
	}
	baseSeq = s.seq
	s.seq += uint64(len(deltas))
	return kind, baseSeq, deltas
}
