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
