// Package policy captures distribution policy: which implementation the
// factories' make and discover methods select for each class (§2.3 "the
// object creation method contains the policy determining which of the
// classes implementing A_O_Int will be used").  Policy is mutable at run
// time; changing it re-draws the program's distribution boundaries for
// subsequent creations and discoveries, which together with object
// migration realises the paper's §4 dynamic reconfiguration.
package policy

import (
	"fmt"
	"maps"
	"strings"
	"sync/atomic"
)

// Kind selects local or remote implementations.
type Kind uint8

// Placement kinds.
const (
	Local Kind = iota + 1
	Remote
)

func (k Kind) String() string {
	switch k {
	case Local:
		return "local"
	case Remote:
		return "remote"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Placement says where instances (and the statics singleton) of a class
// live.  A remote placement's endpoint names the transport that reaches
// them.
type Placement struct {
	Kind     Kind
	Endpoint string // remote node endpoint, for Remote
}

// LocalPlacement is the default: instances are created in-process.
var LocalPlacement = Placement{Kind: Local}

// RemoteAt builds a remote placement from a full endpoint
// ("proto://addr").
func RemoteAt(endpoint string) (Placement, error) {
	if strings.Index(endpoint, "://") <= 0 {
		return Placement{}, fmt.Errorf("bad endpoint %q", endpoint)
	}
	return Placement{Kind: Remote, Endpoint: endpoint}, nil
}

// Table maps classes to placements.  Rules are exact class names; the
// default applies otherwise.  A version counter lets caches detect
// re-configuration.  Table is safe for concurrent use: the configuration
// is an immutable snapshot, version included, behind one atomic pointer.
// A read is one load and never waits, and its placement and version come
// from one configuration; a write copies the snapshot and publishes the
// copy with a compare-and-swap.  Reads are per creation and writes per
// re-policy, so the copy is paid where it is rare.
type Table struct {
	cur atomic.Pointer[snapshot]
}

// snapshot is one configuration of a Table.  Nothing writes to it, or to
// its rules, once it is published.
type snapshot struct {
	rules   map[string]Placement
	def     Placement
	version uint64
}

// with is s with class placed at p, as the next version.
func (s *snapshot) with(class string, p Placement) *snapshot {
	rules := make(map[string]Placement, len(s.rules)+1)
	maps.Copy(rules, s.rules)
	rules[class] = p
	return &snapshot{rules: rules, def: s.def, version: s.version + 1}
}

// NewTable returns an all-local policy table.
func NewTable() *Table {
	t := &Table{}
	t.cur.Store(&snapshot{def: LocalPlacement})
	return t
}

// SetDefault replaces the fallback placement and returns the new table
// version.
func (t *Table) SetDefault(p Placement) uint64 {
	for {
		old := t.cur.Load()
		next := &snapshot{rules: old.rules, def: p, version: old.version + 1}
		if t.cur.CompareAndSwap(old, next) {
			return next.version
		}
	}
}

// SetClass pins a class's placement and returns the new table version.
func (t *Table) SetClass(class string, p Placement) uint64 {
	for {
		old := t.cur.Load()
		if next := old.with(class, p); t.cur.CompareAndSwap(old, next) {
			return next.version
		}
	}
}

// SetClassIf pins a class's placement only if the table version still
// equals ifVersion, reporting whether the update applied.  The adaptive
// placement engine (internal/adapt) reads the version when it starts
// evaluating a window and applies its decisions through this gate, so a
// rule-driven flip never overwrites a re-policy an operator (or another
// decision) made while the window was being evaluated.  A write that
// lands between this call's read and its swap publishes another
// snapshot, so the swap fails: the version moved on.
func (t *Table) SetClassIf(class string, p Placement, ifVersion uint64) bool {
	old := t.cur.Load()
	return old.version == ifVersion && t.cur.CompareAndSwap(old, old.with(class, p))
}

// For returns the placement for class and the table version it was read
// at.
func (t *Table) For(class string) (Placement, uint64) {
	s := t.cur.Load()
	if p, ok := s.rules[class]; ok {
		return p, s.version
	}
	return s.def, s.version
}

// Version returns the current configuration version.
func (t *Table) Version() uint64 { return t.cur.Load().version }
