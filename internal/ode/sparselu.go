package ode

import (
	"errors"
	"math"
	"slices"
)

// sparseLU is a pattern-reusing sparse LU factorization of the Rosenbrock
// shifted matrix M = I − h·d·J, where J is a Jacobian with a fixed CSC
// sparsity pattern. Because the pattern never changes across an integration,
// the analysis — a fill-reducing pivot order (minDegreeOrder), then the
// fill-in pattern of L and U under left-looking Gilbert–Peierls elimination
// in that order (newSparseLU) — runs once per integrator; every later
// (h, J) combination reuses it, so setShifted+factor+solve allocate nothing
// (pinned by TestStiffInnerLoopAllocs).
//
// The factorization is of the symmetrically permuted P·M·Pᵀ = L·U. A
// symmetric permutation keeps the diagonal on the diagonal, so no numeric
// pivoting is needed: the shifted matrix I − h·d·J is strongly diagonally
// weighted. If a pivot still collapses, factor reports errSingular and the
// integrator rejects the step and shrinks h rather than patching the
// factorization.
type sparseLU struct {
	n int

	// perm[k] is the row and column of M that pivot k eliminates.
	perm []int32

	// P·M·Pᵀ in CSC. Pattern = pattern(J) ∪ diagonal, permuted. vals is
	// refilled by setShifted; jmap[e] is the slot of J's e-th nonzero and
	// diagSlot[k] the slot of the k-th diagonal entry.
	mColPtr  []int32
	mRowIdx  []int32
	mVals    []float64
	jmap     []int32
	diagSlot []int32

	// L strictly lower and U upper (diagonal last in each column), both CSC
	// with ascending rows; the patterns come from the symbolic phase and the
	// values are rewritten by every factor call.
	lColPtr []int32
	lRowIdx []int32
	lVals   []float64
	uColPtr []int32
	uRowIdx []int32
	uVals   []float64

	// x is the dense accumulator column of the numeric phase; also the
	// permuted scratch vector of solve.
	x []float64
}

// errSingular reports a collapsed pivot during numeric factorization. The
// integrator treats it like an error-control rejection: shrink h and retry.
var errSingular = errors.New("ode: singular shifted matrix (zero pivot)")

// minPivot is the absolute pivot magnitude below which factor gives up.
// The shifted matrix has unit diagonal weighting, so a pivot this small
// means genuine (near-)singularity, not scaling.
const minPivot = 1e-280

// minDegreeOrder returns a fill-reducing pivot order for a Jacobian with the
// given n-column CSC pattern: minimum degree on the graph of
// pattern(J) ∪ pattern(Jᵀ), eliminating one node at a time and joining its
// neighbours into a clique. Ties go to the lowest index, so one pattern
// always yields one order and the factors are bit-reproducible. The scan
// for the minimum is O(n) per pivot, O(n²) in all, like the symbolic pass
// it precedes; it runs once per integrator, not per step.
func minDegreeOrder(n int, colPtr, rowIdx []int32) []int32 {
	adj := make([][]int32, n)
	for p := 0; p < n; p++ {
		for e := colPtr[p]; e < colPtr[p+1]; e++ {
			if r := rowIdx[e]; int(r) != p {
				adj[p] = append(adj[p], r)
				adj[r] = append(adj[r], int32(p))
			}
		}
	}
	// union appends to out the members of ws not yet stamped with mark.
	stamp := make([]int, n)
	mark := 0
	union := func(out, ws []int32) []int32 {
		for _, w := range ws {
			if stamp[w] != mark {
				stamp[w] = mark
				out = append(out, w)
			}
		}
		return out
	}
	for i, a := range adj { // drop the duplicates of symmetric entries
		mark++
		stamp[i] = mark
		adj[i] = union(a[:0], a)
	}

	perm := make([]int32, 0, n)
	done := make([]bool, n)
	for len(perm) < n {
		v := -1
		for i := range adj {
			if !done[i] && (v < 0 || len(adj[i]) < len(adj[v])) {
				v = i
			}
		}
		perm = append(perm, int32(v))
		done[v] = true
		// adj[u] ← adj[u] ∪ adj[v] − {u, v} for every neighbour u of v:
		// the elimination graph stays symmetric and free of done nodes.
		for _, u := range adj[v] {
			mark++
			stamp[u], stamp[v] = mark, mark
			adj[u] = union(union(adj[u][:0], adj[u]), adj[v])
		}
		adj[v] = nil
	}
	return perm
}

// newSparseLU builds the permuted shifted-matrix pattern and the symbolic
// L/U fill pattern for a Jacobian with the given n-column CSC sparsity
// structure, eliminating in the pivot order perm (a permutation of 0..n-1).
func newSparseLU(n int, jColPtr, jRowIdx []int32, perm []int32) *sparseLU {
	lu := &sparseLU{n: n, perm: perm}
	iperm := make([]int32, n)
	for k, p := range perm {
		iperm[p] = int32(k)
	}

	// Pattern of P·M·Pᵀ: column k holds J's column perm[k] with rows
	// renumbered by iperm, plus the diagonal, rows ascending.
	lu.mColPtr = make([]int32, n+1)
	mRows := make([]int32, 0, len(jRowIdx)+n)
	for k, p := range perm {
		start := len(mRows)
		lu.mColPtr[k] = int32(start)
		mRows = append(mRows, int32(k))
		for e := jColPtr[p]; e < jColPtr[p+1]; e++ {
			if r := iperm[jRowIdx[e]]; r != int32(k) {
				mRows = append(mRows, r)
			}
		}
		slices.Sort(mRows[start:])
	}
	lu.mColPtr[n] = int32(len(mRows))
	lu.mRowIdx = mRows
	lu.mVals = make([]float64, len(mRows))

	slot := func(k, r int32) int32 {
		lo, hi := lu.mColPtr[k], lu.mColPtr[k+1]
		i, _ := slices.BinarySearch(mRows[lo:hi], r)
		return lo + int32(i)
	}
	lu.jmap = make([]int32, len(jRowIdx))
	for p := 0; p < n; p++ {
		for e := jColPtr[p]; e < jColPtr[p+1]; e++ {
			lu.jmap[e] = slot(iperm[p], iperm[jRowIdx[e]])
		}
	}
	lu.diagSlot = make([]int32, n)
	for k := range lu.diagSlot {
		lu.diagSlot[k] = slot(int32(k), int32(k))
	}

	// Symbolic elimination: with no numeric pivoting the fill pattern of
	// column j is the rows of M(:,j) closed under "k in pattern, k < j ⇒
	// rows of L(:,k) in pattern". Left-looking order makes each L column
	// complete before it is merged. The O(n) sweep per column is fine: this
	// runs once per integration, not per step.
	mark := make([]bool, n)
	lu.lColPtr = make([]int32, n+1)
	lu.uColPtr = make([]int32, n+1)
	var lRows, uRows []int32
	for j := 0; j < n; j++ {
		for e := lu.mColPtr[j]; e < lu.mColPtr[j+1]; e++ {
			mark[lu.mRowIdx[e]] = true
		}
		for k := 0; k < j; k++ {
			if !mark[k] {
				continue
			}
			for e := lu.lColPtr[k]; e < lu.lColPtr[k+1]; e++ {
				mark[lu.lRowIdx[e]] = true
			}
		}
		for k := 0; k <= j; k++ { // ascending; diagonal lands last
			if mark[k] {
				uRows = append(uRows, int32(k))
			}
		}
		for i := j + 1; i < n; i++ {
			if mark[i] {
				lRows = append(lRows, int32(i))
			}
		}
		lu.uColPtr[j+1] = int32(len(uRows))
		lu.lColPtr[j+1] = int32(len(lRows))
		for i := range mark {
			mark[i] = false
		}
		// Reassign each column: append may have moved the backing array, and
		// the next column's merge reads lu.lRowIdx.
		lu.lRowIdx = lRows
		lu.uRowIdx = uRows
	}
	lu.lVals = make([]float64, len(lRows))
	lu.uVals = make([]float64, len(uRows))
	lu.x = make([]float64, n)
	return lu
}

// setShifted fills P·M·Pᵀ with M = I − hd·J from the Jacobian nonzeros. jnz
// must be in the CSC order newSparseLU was built from.
func (lu *sparseLU) setShifted(hd float64, jnz []float64) {
	for i := range lu.mVals {
		lu.mVals[i] = 0
	}
	for e, slot := range lu.jmap {
		lu.mVals[slot] = -hd * jnz[e]
	}
	for _, slot := range lu.diagSlot {
		lu.mVals[slot] += 1
	}
}

// factor runs the numeric left-looking factorization P·M·Pᵀ = L·U over the
// precomputed symbolic pattern. Without numeric pivoting the ascending row
// order of each U column is a valid topological order: the update from
// pivot k only touches rows > k, so by the time row k is read it is final.
func (lu *sparseLU) factor() error {
	x := lu.x
	for j := 0; j < lu.n; j++ {
		// Zero the pattern positions, scatter M(:,j).
		for e := lu.uColPtr[j]; e < lu.uColPtr[j+1]; e++ {
			x[lu.uRowIdx[e]] = 0
		}
		for e := lu.lColPtr[j]; e < lu.lColPtr[j+1]; e++ {
			x[lu.lRowIdx[e]] = 0
		}
		for e := lu.mColPtr[j]; e < lu.mColPtr[j+1]; e++ {
			x[lu.mRowIdx[e]] = lu.mVals[e]
		}
		// Sparse triangular solve: eliminate with each pivot k < j present
		// in this column's U pattern, ascending.
		for e := lu.uColPtr[j]; e < lu.uColPtr[j+1]-1; e++ {
			k := lu.uRowIdx[e]
			xk := x[k]
			lu.uVals[e] = xk
			if xk == 0 {
				continue
			}
			for le := lu.lColPtr[k]; le < lu.lColPtr[k+1]; le++ {
				x[lu.lRowIdx[le]] -= lu.lVals[le] * xk
			}
		}
		ujj := x[j]
		if math.Abs(ujj) < minPivot {
			return errSingular
		}
		lu.uVals[lu.uColPtr[j+1]-1] = ujj // diagonal is last in the column
		inv := 1 / ujj
		for e := lu.lColPtr[j]; e < lu.lColPtr[j+1]; e++ {
			lu.lVals[e] = x[lu.lRowIdx[e]] * inv
		}
	}
	return nil
}

// solve computes out = M⁻¹·b using the current factorization. b and out may
// alias. It allocates nothing.
func (lu *sparseLU) solve(b, out []float64) {
	x := lu.x
	for k, p := range lu.perm {
		x[k] = b[p]
	}
	// Forward: L·z = P·b, L unit lower triangular, column-oriented.
	for j := 0; j < lu.n; j++ {
		zj := x[j]
		if zj == 0 {
			continue
		}
		for e := lu.lColPtr[j]; e < lu.lColPtr[j+1]; e++ {
			x[lu.lRowIdx[e]] -= lu.lVals[e] * zj
		}
	}
	// Backward: U·w = z, diagonal stored last per column; out = Pᵀ·w.
	for j := lu.n - 1; j >= 0; j-- {
		xj := x[j] / lu.uVals[lu.uColPtr[j+1]-1]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for e := lu.uColPtr[j]; e < lu.uColPtr[j+1]-1; e++ {
			x[lu.uRowIdx[e]] -= lu.uVals[e] * xj
		}
	}
	for k, p := range lu.perm {
		out[p] = x[k]
	}
}
