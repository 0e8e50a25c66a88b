package main

// Example runs the rootkithunt program and pins every line it prints: the run is
// deterministic, so any change to its virtual behaviour shows here.
func Example() {
	main()
	// Output:
	// before rootkit: VMI sees 1 malware process(es)
	// after SucKIT (kmem, DKOM): VMI sees 0 malware process(es), unlinked pids [6]
	//
	// HRKD cross-view at 300ms:
	//   architectural address spaces: 3
	//   architectural threads (recently on CPU): 8
	//   tasks in the (untrusted) list view: 6
	//   FINDING: hrkd: hidden task pid=6 comm="malware" (runs on CPU but absent from task list) at 300ms
	//
	// the rootkit hid from every OS-invariant view and was still caught.
}
