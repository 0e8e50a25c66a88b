package main

// Example runs the quickstart program and pins every line it prints: the run is
// deterministic, so any change to its virtual behaviour shows here.
func Example() {
	main()
	// Output:
	// events observed in 2s of guest time:
	//   process-switch     1158
	//   thread-switch      1166
	//   syscall            2316
	//
	// Fig. 3A process count: 3 live address spaces
	// guest ran 2316 syscalls and 1164 context switches
}
