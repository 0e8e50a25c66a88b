package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Escape-comment directives. The vet gate is only trustworthy if every
// exception is visible and justified at the violation site, so the grammar
// is deliberately rigid:
//
//	//hypertap:allow <pass> <reason...>       suppress <pass> on this line
//	                                          and the next (comment-above or
//	                                          trailing-comment placement)
//	//hypertap:allow-file <pass> <reason...>  suppress <pass> in this file
//	//hypertap:hotpath [note...]              declare the documented function
//	                                          a hot-path root (see hotSet)
//
// A malformed directive — unknown verb, unknown pass name, or a missing
// reason — is itself a finding (pass name "directive"), and malformed
// directives never suppress anything. So is a hotpath marker on a function
// another marked function already reaches. That closes the obvious hole where a
// typo silently disables the gate.

// directivePrefix introduces every directive comment.
const directivePrefix = "hypertap:"

// DirectivePass is the pseudo-pass name misused directives are reported
// under. It is not a real pass and cannot be allowed away.
const DirectivePass = "directive"

// allowKey identifies one line-scoped suppression.
type allowKey struct {
	file string
	line int
	pass string
}

// allowRec is one parsed allow directive. used flips when the directive
// suppresses a finding; a directive that never does is itself reported —
// the escape it once justified has rotted away, and keeping it would let a
// future regression land pre-suppressed.
type allowRec struct {
	pos  token.Position
	used bool
}

// directiveSet is the parsed directives of one package.
type directiveSet struct {
	// line holds line-scoped allows: a finding for pass P at file:L is
	// suppressed by an allow at L or L-1, and only for the named pass —
	// other passes' findings on the same line stay reported.
	line map[allowKey]*allowRec
	// file holds file-scoped allows keyed by filename then pass.
	file map[string]map[string]*allowRec
	// files is the set of filenames belonging to this package.
	files map[string]bool
	// misuse collects malformed-directive findings.
	misuse []Finding
	// known is the valid pass-name set allow targets are checked against.
	known map[string]bool
}

// allows reports whether a finding of pass at pos is suppressed, marking the
// consumed directive used.
func (d *directiveSet) allows(pass string, pos token.Position) bool {
	if rec := d.file[pos.Filename][pass]; rec != nil {
		rec.used = true
		return true
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if rec := d.line[allowKey{pos.Filename, line, pass}]; rec != nil {
			rec.used = true
			return true
		}
	}
	return false
}

// ownsFile reports whether filename is one of this package's files.
func (d *directiveSet) ownsFile(filename string) bool { return d.files[filename] }

// stale returns one finding per allow directive that suppressed nothing.
func (d *directiveSet) stale() []Finding {
	var out []Finding
	report := func(rec *allowRec, scope, pass string) {
		if rec.used {
			return
		}
		out = append(out, Finding{Pos: rec.pos, Pass: DirectivePass,
			Msg: "hypertap:" + scope + " " + pass + " suppresses nothing — the escape is stale; " +
				"remove the directive (or it will hide the next real " + pass + " violation here)"})
	}
	for key, rec := range d.line {
		report(rec, "allow", key.pass)
	}
	for _, byPass := range d.file {
		for pass, rec := range byPass {
			report(rec, "allow-file", pass)
		}
	}
	return out
}

// parseDirectives scans every comment of every file in pkg. known is the
// set of valid pass names for validating allow targets.
func parseDirectives(pkg *Package, known map[string]bool) *directiveSet {
	d := &directiveSet{
		line:  make(map[allowKey]*allowRec),
		file:  make(map[string]map[string]*allowRec),
		files: make(map[string]bool, len(pkg.Files)),
		known: known,
	}
	for _, f := range pkg.Files {
		d.files[pkg.Fset.Position(f.Pos()).Filename] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d.parseComment(pkg, c)
			}
		}
	}
	return d
}

// parseComment handles one comment, recording directives and misuse.
func (d *directiveSet) parseComment(pkg *Package, c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//"+directivePrefix)
	if !ok {
		return
	}
	pos := pkg.Fset.Position(c.Pos())
	verb, rest, _ := strings.Cut(text, " ")
	switch verb {
	case "hotpath":
		// Consumed by hotSet via hotpathMarked; any trailing text is a
		// free-form note.
		return
	case "allow", "allow-file":
		pass, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
		if pass == "" {
			d.fail(pos, "hypertap:%s needs a pass name and a reason, e.g. //hypertap:%s wallclock real TCP heartbeat timing", verb, verb)
			return
		}
		if !d.known[pass] {
			d.fail(pos, "hypertap:%s names unknown pass %q (known: %s)", verb, pass, knownNames(d.known))
			return
		}
		if strings.TrimSpace(reason) == "" {
			d.fail(pos, "hypertap:%s %s is missing its reason — every escape must say why", verb, pass)
			return
		}
		if verb == "allow-file" {
			if d.file[pos.Filename] == nil {
				d.file[pos.Filename] = make(map[string]*allowRec)
			}
			d.file[pos.Filename][pass] = &allowRec{pos: pos}
		} else {
			d.line[allowKey{pos.Filename, pos.Line, pass}] = &allowRec{pos: pos}
		}
	default:
		d.fail(pos, "unknown directive hypertap:%s (known: allow, allow-file, hotpath)", verb)
	}
}

// fail records one malformed-directive finding.
func (d *directiveSet) fail(pos token.Position, format string, args ...any) {
	d.misuse = append(d.misuse, Finding{Pos: pos, Pass: DirectivePass, Msg: fmt.Sprintf(format, args...)})
}

// knownNames renders the sorted known pass names.
func knownNames(known map[string]bool) string {
	names := make([]string, 0, len(known))
	for n := range known {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// hotpathMarked reports whether a function declaration carries a
// //hypertap:hotpath line in its doc comment.
func hotpathMarked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//"+directivePrefix+"hotpath")
		if ok && (rest == "" || rest[0] == ' ') {
			return true
		}
	}
	return false
}
