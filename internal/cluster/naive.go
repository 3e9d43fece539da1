package cluster

import (
	"context"
	"fmt"
	"time"

	"enframe/internal/event"
	"enframe/internal/lineage"
	"enframe/internal/prob"
	"enframe/internal/vec"
	"enframe/internal/worlds"
)

// Naive is the paper's naïve baseline (§5 "Algorithms"): it enumerates every
// possible world of space, runs KMedoids on the objects of that world and
// adds the world's mass to each Centre[i][l] that holds. It is exponential in
// the number of variables. The targets are listed in (i, l) order; look them
// up by name with prob.Result.Target. When ctx ends before the last world,
// the result is TimedOut and every upper bound is 1: the unexplored mass
// could fall either way.
func Naive(ctx context.Context, objs []lineage.Object, space *event.Space, k, iter int, init []int, metric vec.Distance) *prob.Result {
	start := time.Now()
	evs := lineage.Events(objs)
	points := lineage.Positions(objs)
	mass := make([]float64, k*len(objs))
	res := &prob.Result{}
	worlds.Enumerate(space, func(nu event.SliceValuation, p float64) bool {
		if ctx.Err() != nil {
			res.TimedOut = true
			return false
		}
		res.Stats.Branches++
		r := KMedoids(points, worlds.Presence(evs, nu), k, iter, init, metric)
		for i, row := range r.Centre {
			for l, c := range row {
				if c {
					mass[i*len(objs)+l] += p
				}
			}
		}
		return true
	})
	res.Stats.Jobs = 1
	res.Stats.Duration = time.Since(start)
	for t, p := range mass {
		upper := p
		if res.TimedOut {
			upper = 1
		}
		name := fmt.Sprintf("Centre[%d][%d]", t/len(objs), t%len(objs))
		res.Targets = append(res.Targets, prob.TargetBound{Name: name, Lower: p, Upper: upper})
	}
	return res
}
