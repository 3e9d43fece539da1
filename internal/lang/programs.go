package lang

// Canonical user programs from the paper's Figures 1–3. They parse with
// this package and drive the interpreter, the translator, the CLI and the
// server.

import "sync"

// Builtin is a program the CLI's -program flag and a request's "program"
// field name.
type Builtin struct {
	Source string
	// Targets are the default target patterns: the program's Boolean
	// result.
	Targets []string
	// Matrix reports that loadData() binds (O, n, M): the program reads a
	// weight matrix and loadParams() binds (r, iter), not (k, iter).
	Matrix bool
	// parsed parses Source on its first call and returns that AST on every
	// later one.
	parsed func() *Program
}

// Parsed returns the parsed Source. It is parsed once per process and the
// one AST is shared by every caller, so it must not be mutated (the AST is
// never modified after parsing; see Program).
func (b Builtin) Parsed() *Program { return b.parsed() }

// builtin returns the Builtins entry of a program's text.
func builtin(src string, targets []string, matrix bool) Builtin {
	return Builtin{Source: src, Targets: targets, Matrix: matrix,
		parsed: sync.OnceValue(func() *Program { return MustParse(src) })}
}

// Builtins is the one table of builtin programs, by name.
var Builtins = map[string]Builtin{
	"kmedoids": builtin(KMedoidsSource, []string{"Centre["}, false),
	"kmeans":   builtin(KMeansSource, []string{"InCl["}, false),
	"mcl":      builtin(MCLSource, []string{"CoCl["}, true),
}

// DefaultTargets returns the target patterns of a run that names none: the
// builtin's result, or "Centre[" for inline source.
func DefaultTargets(program, source string) []string {
	if b, ok := Builtins[program]; ok && source == "" {
		return append([]string(nil), b.Targets...)
	}
	return []string{"Centre["}
}

// KMedoidsSource is the k-medoids user program of Figure 1.
const KMedoidsSource = `
(O, n) = loadData()           # list and number of objects
(k, iter) = loadParams()      # number of clusters and iterations
M = init()                    # initialise medoids
for it in range(0,iter):      # clustering iterations
    InCl = [None] * k         # assignment phase
    for i in range(0,k):
        InCl[i] = [None] * n
        for l in range(0,n):
            InCl[i][l] = reduce_and([(dist(O[l],M[i]) <= dist(O[l],M[j])) for j in range(0,k)])
    InCl = breakTies2(InCl)   # each object is in exactly one cluster
    DistSum = [None] * k      # update phase
    for i in range(0,k):
        DistSum[i] = [None] * n
        for l in range(0,n):
            DistSum[i][l] = reduce_sum([dist(O[l],O[p]) for p in range(0,n) if InCl[i][p]])
    Centre = [None] * k
    for i in range(0,k):
        Centre[i] = [None] * n
        for l in range(0,n):
            Centre[i][l] = reduce_and([DistSum[i][l] <= DistSum[i][p] for p in range(0,n)])
    Centre = breakTies1(Centre)  # enforce one Centre per cluster
    M = [None] * k
    for i in range(0,k):
        M[i] = reduce_sum([O[l] for l in range(0,n) if Centre[i][l]])
`

// KMeansSource is the k-means user program of Figure 2.
const KMeansSource = `
(O, n) = loadData()           # list and number of objects
(k, iter) = loadParams()      # number of clusters and iterations
M = init()                    # initialise centroids
for it in range(0,iter):      # clustering iterations
    InCl = [None] * k         # assignment phase
    for i in range(0,k):
        InCl[i] = [None] * n
        for l in range(0,n):
            InCl[i][l] = reduce_and([dist(O[l],M[i]) <= dist(O[l],M[j]) for j in range(0,k)])
    InCl = breakTies2(InCl)   # each object is in exactly one cluster
    M = [None] * k            # update phase
    for i in range(0,k):
        M[i] = scalar_mult(invert(reduce_count([1 for l in range(0,n) if InCl[i][l]])), reduce_sum([O[l] for l in range(0,n) if InCl[i][l]]))
`

// MCLSource is the Markov clustering user program of Figure 3, with
// co-clustering as a suffix: CoCl[i][j] holds when some node c attracts
// both i and j, i.e. M[i][c] > θ and M[j][c] > θ with θ = 0.3. An edge
// between two objects exists when both objects do (DESIGN.md, "MCL
// semantics").
const MCLSource = `
(O, n, M) = loadData()        # M is an n*n matrix of edge weights
(r, iter) = loadParams()      # Hadamard power, number of iterations
for it in range(0,iter):
    N = [None] * n            # expansion phase
    for i in range(0,n):
        N[i] = [None] * n
        for j in range(0,n):
            N[i][j] = reduce_sum([M[i][k]*M[k][j] for k in range(0,n)])
    M = [None] * n            # inflation phase
    for i in range(0,n):
        M[i] = [None] * n
        for j in range(0,n):
            M[i][j] = pow(N[i][j],r)*invert(reduce_sum([pow(N[i][k],r) for k in range(0,n)]))
CoCl = [None] * n             # co-clustering: i and j share an attractor
for i in range(0,n):
    CoCl[i] = [None] * n
    for j in range(0,n):
        CoCl[i][j] = reduce_or([M[j][c] > 0.3 for c in range(0,n) if M[i][c] > 0.3])
`

// Example3Source is the label-machinery example of §3.5 (Example 3).
const Example3Source = `
M = 7
M = M+2
for i in range(0,2):
    M = M+i
    for j in range(0,3):
        M = M+1
M = M+1
`
