package analysis

import (
	"strings"
	"testing"
)

// TestScopeEntriesMatchPackages pins the passes' package scopes to the
// module as it is: every entry must cover at least one real package, so a
// deleted or renamed package cannot leave a dead entry behind — one that
// silently stops guarding whatever takes its place.
func TestScopeEntriesMatchPackages(t *testing.T) {
	l := fixtureLoader(t)
	var pkgs []string
	for _, p := range l.targets {
		pkgs = append(pkgs, p.ImportPath)
	}
	scopes := map[string][]string{
		"wallclock deterministicPkgs":   deterministicPkgs,
		"hotpath_trace flightPlanePkgs": flightPlanePkgs,
		"seedflow seedScopePkgs":        seedScopePkgs,
		"lockdiscipline lockScopePkgs":  lockScopePkgs,
		"eventsonly auditorPrefix":      {strings.TrimSuffix(auditorPrefix, "/") + "/..."},
		"eventsonly guest/hv paths":     {guestPkgPath, hvPkgPath},
		"vmisolation host/vmi paths":    {hostPkgPath, vmiPkgPath},
	}
	for scope, entries := range scopes {
		for _, e := range entries {
			found := false
			for _, p := range pkgs {
				if pathMatches(p, []string{e}) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: entry %q matches no package of the module", scope, e)
			}
		}
	}
}
