package stm

// OrecsSet counts the ownership records holding anything but 0, for the
// external tests' proof that a scope ran no barrier.
func (rt *Runtime) OrecsSet() int {
	n := 0
	for i := range rt.orecs {
		if rt.orecs[i].Load() != 0 {
			n++
		}
	}
	return n
}

// OrecsSum is an FNV-1a hash of every ownership record, for the
// external tests' proof that a scope acquired and released none.
func (rt *Runtime) OrecsSum() uint64 {
	h := uint64(14695981039346656037)
	for i := range rt.orecs {
		h = (h ^ rt.orecs[i].Load()) * 1099511628211
	}
	return h
}

// Barriered runs fn as though inside th's Exclusive scope, so that an
// Exclusive call on th inside fn nests and just runs, but with the
// phase's own barriers installed: the barriered reference a scoped run
// is compared with. A phase switch inside fn would install the
// exclusive pair, so it refuses a runtime with declared phases.
func (th *Thread) Barriered(fn func()) {
	if len(th.rt.phases) > 1 {
		panic("stm: Barriered on a runtime with declared phases")
	}
	th.rt.excl.Store(th)
	defer th.rt.excl.Store(nil)
	fn()
}
