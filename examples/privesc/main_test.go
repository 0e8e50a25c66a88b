package main

// Example runs the privesc program and pins every line it prints: the run is
// deterministic, so any change to its virtual behaviour shows here.
func Example() {
	main()
	// Output:
	// launching transient privilege-escalation attack (exploit -> copy secret -> exit)...
	// [    1.2s] ht-ninja: privilege-escalated pid=8 comm="attack" at 1.2000241s (io-syscall)
	//
	// attack: escalated=true at 1.2s, acted=true at 1.201s, exited=true
	// O-Ninja  (in-guest poller, 1s):  detected=false
	// H-Ninja  (VMI poller, 1s):       detected=false
	// HT-Ninja (HyperTap, active):     detected=true
	//
	// HT-Ninja flagged pid 8 via "io-syscall" at 1.200024s — 605µs before the attack's I/O completed.
}
