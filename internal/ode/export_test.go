package ode

// Hooks for the external ode_test package. Its tests draw networks with
// synth and core, which import ode themselves.

var MinDegreeOrder = minDegreeOrder

// FactorSolve factors I − hd·J, J given in CSC, in pivot order perm and
// solves it for b. fill is the nonzero count of L and U.
func FactorSolve(n int, colPtr, rowIdx, perm []int32, hd float64, jnz, b []float64) (x []float64, fill int, err error) {
	lu := newSparseLU(n, colPtr, rowIdx, perm)
	lu.setShifted(hd, jnz)
	if err := lu.factor(); err != nil {
		return nil, 0, err
	}
	x = make([]float64, n)
	lu.solve(b, x)
	return x, len(lu.lVals) + len(lu.uVals), nil
}

// Order returns the pivot order s factors in.
func (s *Stiff) Order() []int32 { return s.lu.perm }

// StepError returns the error estimate of one ode23s attempt of size h from
// (t, y) with the Jacobian values jnz, at the default tolerances.
func (s *Stiff) StepError(f Func, t, h float64, y, jnz []float64) (float64, error) {
	s.lu.setShifted(h*rosD, jnz)
	if err := s.lu.factor(); err != nil {
		return 0, err
	}
	f(t, y, s.f0)
	return s.attempt(f, t, h, y, Options{}.withDefaults(1)), nil
}
