// Package fixture exercises //toposhot:hotpath placement. The directive is
// honored only as a line of a function declaration's doc comment in a
// non-test file; every other //toposhot: comment is reported, because a
// directive that attaches to nothing guards nothing.
package fixture

// marked has the shape gofmt settles on: prose, a bare spacer, the directive
// last. It is in force, so the map range below is flagged.
//
//toposhot:hotpath
func marked(m map[int]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

//toposhot:hotpath
func bare(m map[int]int) int {
	for k := range m {
		return k
	}
	return 0
}

// misspelt names no known directive: reported, and not in force.
//
//toposhot:hotpth
func misspelt(m map[int]int) int {
	for k := range m {
		return k
	}
	return 0
}

// trailing carries text after the directive: it must match exactly.
//
//toposhot:hotpath delivery
func trailing() {}

//toposhot:hotpath

// detached is separated from its directive by a blank line: the comment above
// is not this function's doc, so it is reported and the range stays legal.
func detached(m map[int]int) int {
	for k := range m {
		return k
	}
	return 0
}

//toposhot:hotpath
type onType struct{}

//toposhot:hotpath
var onVar int

func inBody() {
	//toposhot:hotpath
	_ = onVar
	_ = onType{}
}
