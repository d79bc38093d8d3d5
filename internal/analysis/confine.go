package analysis

import (
	"go/ast"
	"slices"
	"strings"
)

// confinement is one row of the "API set X, package set Y" check: the
// listed functions of one stdlib package may be called either only
// inside the listed packages (only) or anywhere but inside them.
type confinement struct {
	name, doc string
	pkg       string   // the confined stdlib package
	funcs     []string // its confined functions
	// in lists import paths; a trailing "/" covers the whole tree.
	in   []string
	only bool
	// msg completes the finding "pkg.Func() ...".
	msg string
}

// confine builds the analyzer for one row. The three rows keep their
// own analyzer names so findings and //fslint:ignore directives read as
// the invariant they protect.
func confine(c confinement) *Analyzer {
	listed := func(importPath string) bool {
		return slices.ContainsFunc(c.in, func(p string) bool {
			return importPath == p || strings.HasSuffix(p, "/") && strings.HasPrefix(importPath, p)
		})
	}
	return &Analyzer{
		Name:    c.name,
		Doc:     c.doc,
		Applies: func(importPath string) bool { return listed(importPath) != c.only },
		Run: func(pass *Pass) {
			for _, file := range pass.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(pass.Info, call)
					for _, name := range c.funcs {
						if isFuncNamed(callee, c.pkg, name) {
							pass.Reportf(call.Pos(), "%s.%s() %s", c.pkg, name, c.msg)
						}
					}
					return true
				})
			}
		},
	}
}

// ClockDiscipline bans direct wall-clock reads — and, equally, direct
// wall-clock sleeps — in the packages whose time must come from the
// injected truetime.Clock: the engine (commit timestamps, lock
// deadlines, load windows), storage (WAL frame stamps, group-fsync
// scheduling), the fault plane (injected latency must obey a Manual
// clock so chaos runs stay deterministic) and the clock package itself.
// A stray time.Now() there breaks commit-wait semantics under a Manual
// clock and makes runs unreplayable (PAPER.md §IV-D1); time.Sleep is the
// same dependency hidden in a delay.
var ClockDiscipline = confine(confinement{
	name:  "clockdiscipline",
	doc:   "spanner, storage, truetime, and fault read and sleep time only through the injected truetime.Clock, never time.Now()/time.Sleep()",
	pkg:   "time",
	funcs: []string{"Now", "Since", "Until", "Sleep"},
	in: []string{
		"firestore/internal/fault",
		"firestore/internal/spanner",
		"firestore/internal/storage",
		"firestore/internal/truetime",
	},
	msg: "in a TrueTime-disciplined package; timestamps, deadlines, load windows and injected delays must come from the injected truetime.Clock so Manual-clock runs stay deterministic",
})

// IODiscipline bans direct os file I/O outside internal/storage.
// Durability is a protocol — WAL append, group fsync, segment flush,
// manifest swap — and it is only enforceable if internal/storage is the
// sole owner of file handles: a stray os.WriteFile in another layer
// bypasses the WAL and produces state a crash can tear. The analysis
// loader reads Go sources, and cmd/ and examples/ binaries own
// flag-driven scratch directories (they pass paths IN to the engine but
// never manage durable state themselves).
var IODiscipline = confine(confinement{
	name: "iodiscipline",
	doc:  "file I/O lives in internal/storage; no direct os.* file operations elsewhere (durability is a protocol, not a convention)",
	pkg:  "os",
	funcs: []string{
		"Open", "OpenFile", "Create", "CreateTemp", "ReadFile", "WriteFile", "ReadDir",
		"Mkdir", "MkdirAll", "MkdirTemp", "Remove", "RemoveAll", "Rename",
		"Stat", "Lstat", "Readlink", "Truncate", "Chmod", "Chown", "Chtimes",
		"Link", "Symlink", "NewFile",
	},
	in:   []string{"firestore/internal/storage", "firestore/internal/analysis", "firestore/cmd/", "firestore/examples/"},
	only: true,
	msg:  "outside internal/storage; file I/O must go through the storage engine so the WAL/manifest crash-recovery protocol governs every byte on disk",
})

// NetDiscipline bans direct socket creation outside internal/transport.
// The wire is a protocol — length-prefixed frames, deadline propagation,
// canonical status mapping, injectable network faults, per-peer health —
// and a stray net.Dial in another layer is invisible to all of it.
// Process entry points bind their own HTTP/control-plane listeners.
var NetDiscipline = confine(confinement{
	name: "netdiscipline",
	doc:  "sockets live in internal/transport; no direct net.Dial/net.Listen elsewhere (the wire protocol, fault sites, and peer metrics all hang off the one transport)",
	pkg:  "net",
	funcs: []string{
		"Dial", "DialTimeout", "DialIP", "DialTCP", "DialUDP", "DialUnix",
		"Listen", "ListenIP", "ListenMulticastUDP", "ListenPacket", "ListenTCP", "ListenUDP",
		"ListenUnix", "ListenUnixgram", "FileConn", "FileListener", "FilePacketConn",
	},
	in:   []string{"firestore/internal/transport", "firestore/internal/analysis", "firestore/cmd/", "firestore/examples/"},
	only: true,
	msg:  "outside internal/transport; connections must go through the transport so frames, fault injection, and per-peer health govern every byte on the wire",
})
