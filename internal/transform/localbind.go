package transform

import (
	"fmt"
	"sync"

	"rafda/internal/vm"
)

// BindLocal registers the native make/discover methods of every generated
// factory on machine with an all-local policy: make constructs A_O_Local,
// discover returns the A_C_Local singleton (running the class's clinit on
// first discovery).  This yields the paper's §4 "local version of the
// transformed application that executes within a single address space" —
// the distributed runtime (internal/node) registers richer, policy-driven
// implementations of the same natives instead.
func BindLocal(machine *vm.VM, r *Result) {
	// The cache map is shared by every discover native.  The mutex makes
	// the map operations atomic and the publish below discards a losing
	// racer's instance, but full once-semantics for concurrent first
	// discovery needs the node runtime's owner-tracked table — BindLocal
	// is the single-address-space harness; a host that races first
	// discovery from several goroutines wants a node.
	var mu sync.Mutex
	singletons := make(map[string]vm.Value)
	for _, class := range r.Transformed {
		class := class
		machine.RegisterNative(OFactory(class), MakeMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				return env.Construct(OLocal(class), nil)
			})
		machine.RegisterNative(CFactory(class), DiscoverMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				mu.Lock()
				me, ok := singletons[class]
				mu.Unlock()
				if ok {
					return me, nil, nil
				}
				me, thrown, err := env.Call(CLocal(class), SingletonGet, vm.Value{}, nil)
				if thrown != nil || err != nil {
					return vm.Value{}, thrown, err
				}
				// Cache before running clinit so initialisation cycles
				// terminate, mirroring JVM class-initialisation rules.
				// If another goroutine published meanwhile, adopt its
				// instance and discard ours — one singleton survives.
				mu.Lock()
				if exist, ok := singletons[class]; ok {
					mu.Unlock()
					return exist, nil, nil
				}
				singletons[class] = me
				mu.Unlock()
				if _, thrown, err := env.Call(CFactory(class), ClinitMethod, vm.Value{}, []vm.Value{me}); thrown != nil || err != nil {
					mu.Lock()
					delete(singletons, class)
					mu.Unlock()
					return vm.Value{}, thrown, err
				}
				return me, nil, nil
			})
	}
}

// RunMain executes the entry point of a transformed program on machine:
// mainClass's original `static void main()` reached through the class
// factory.  BindLocal (or the node runtime) must have been applied.
func RunMain(machine *vm.VM, r *Result, mainClass string) error {
	class, method := r.MainEntry(mainClass)
	if _, err := machine.Invoke(class, method, vm.Value{}, nil); err != nil {
		return fmt.Errorf("run %s.%s: %w", class, method, err)
	}
	return nil
}
