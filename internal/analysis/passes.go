package analysis

// AllPasses returns every hypertap-vet pass, in report order: the three
// per-package AST passes, then the five whole-program verifiers.
func AllPasses() []Pass {
	return []Pass{
		Wallclock{},
		SeededRand{},
		EventsOnly{},
		Hotpath{},
		LockDiscipline{},
		AllocProof{},
		SeedFlow{},
		VMIsolation{},
	}
}
