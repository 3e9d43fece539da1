package difftest

import "testing"

// fuzzSeeds are FuzzPipeline's in-code seeds; the golden corpus covers them
// and the committed corpus files too (golden_test.go).
var fuzzSeeds = []int64{1, 42, -1, 1 << 40, -9007199254740993}

// FuzzPipeline feeds arbitrary seeds to the full differential harness: the
// generator must be total over int64, and every generated program must agree
// across the per-world oracle, the exact pipeline, the reference evaluator,
// the traced circuit, the approximation strategies, and the distributed
// runner.
func FuzzPipeline(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := Check(seed, Quick()); err != nil {
			t.Fatal(err)
		}
	})
}
