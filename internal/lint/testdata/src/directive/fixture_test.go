package fixture

// helper sits in a test file, which is never on the hot path: reported.
//
//toposhot:hotpath
func helper(m map[int]int) int {
	for k := range m {
		return k
	}
	return 0
}
