package fixture

// Index declares Members as a map; b.go ranges over it.
type Index struct {
	Members map[uint64]uint64
}

// List declares a slice field of the same name.
type List struct {
	Members []uint64
}
