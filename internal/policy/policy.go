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
	"strings"
	"sync"
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
// live and which proxy protocol reaches them.
type Placement struct {
	Kind     Kind
	Proto    string // proxy protocol, for Remote
	Endpoint string // remote node endpoint, for Remote
}

// LocalPlacement is the default: instances are created in-process.
var LocalPlacement = Placement{Kind: Local}

// RemoteAt builds a remote placement from a full endpoint
// ("proto://addr").
func RemoteAt(endpoint string) (Placement, error) {
	i := strings.Index(endpoint, "://")
	if i <= 0 {
		return Placement{}, fmt.Errorf("bad endpoint %q", endpoint)
	}
	return Placement{Kind: Remote, Proto: endpoint[:i], Endpoint: endpoint}, nil
}

// Table maps classes to placements.  Rules are exact class names; the
// default applies otherwise.  A version counter lets caches detect
// re-configuration.  Table is safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	rules   map[string]Placement
	def     Placement
	version uint64
}

// NewTable returns an all-local policy table.
func NewTable() *Table {
	return &Table{rules: make(map[string]Placement), def: LocalPlacement}
}

// SetDefault replaces the fallback placement and returns the new table
// version.
func (t *Table) SetDefault(p Placement) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.def = p
	t.version++
	return t.version
}

// SetClass pins a class's placement and returns the new table version.
func (t *Table) SetClass(class string, p Placement) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules[class] = p
	t.version++
	return t.version
}

// SetClassIf pins a class's placement only if the table version still
// equals ifVersion, reporting whether the update applied.  The adaptive
// placement engine (internal/adapt) reads the version when it starts
// evaluating a window and applies its decisions through this gate, so a
// rule-driven flip never overwrites a re-policy an operator (or another
// decision) made while the window was being evaluated.
func (t *Table) SetClassIf(class string, p Placement, ifVersion uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.version != ifVersion {
		return false
	}
	t.rules[class] = p
	t.version++
	return true
}

// For returns the placement for class and the table version it was read
// at.
func (t *Table) For(class string) (Placement, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p, ok := t.rules[class]; ok {
		return p, t.version
	}
	return t.def, t.version
}

// Version returns the current configuration version.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}
