package main

// Example runs the hangwatch program and pins every line it prints: the run is
// deterministic, so any change to its virtual behaviour shows here.
func Example() {
	main()
	// Output:
	// profiling the guest's scheduling gaps for 5s...
	// max inter-switch gap 1.06069165s -> threshold 2.1213833s
	// injected persistent missing-release fault at site 155 (ext3 write path)
	// [  7.122s] goshd: vcpu0 hung at 7.1213833s (last switch 5s)
	// [  7.122s] goshd: vcpu1 hung at 7.1213833s (last switch 5s)
	//
	// fault activated at 5s
	// alarm: vcpu0 at 7.1213833s (latency after activation: 2.121s)
	// alarm: vcpu1 at 7.1213833s (latency after activation: 2.121s)
	// outcome: FULL HANG (both vCPUs) — the partial-hang alarm led it
}
