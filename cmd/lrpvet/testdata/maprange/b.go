package fixture

func Sum(ix *Index, l *List) (n uint64) {
	for k := range ix.Members {
		n += k
	}
	for _, v := range l.Members {
		n += v
	}
	return n
}
