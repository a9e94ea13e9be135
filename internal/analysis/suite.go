package analysis

// Suite returns every pass of iorchestra-vet in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism,
		StoreKeys,
		BoundedRetry,
	}
}

// Lookup returns the analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
