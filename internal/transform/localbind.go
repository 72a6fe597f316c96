package transform

import (
	"fmt"

	"rafda/internal/vm"
)

// BindLocal registers the native make/discover methods of every generated
// factory on machine with an all-local policy: make constructs A_O_Local,
// discover returns the A_C_Local singleton.  This yields the paper's §4
// "local version of the transformed application that executes within a
// single address space" — the distributed runtime (internal/node)
// registers richer, policy-driven implementations of the same natives
// instead.  Each make resolves its A_O_Local here, once, so a local new
// costs what the original's does: one allocation.
//
// The singleton is A_C_Local's static, made by its <clinit>, which then
// runs the class's rewritten initialiser: the VM initialises a class once
// and makes every other execution wait until it has (VM.initClass), so
// discovery has the original program's once-semantics, concurrent first
// touches included.
func BindLocal(machine *vm.VM, r *Result) {
	for _, class := range r.Transformed {
		local, impl := CLocal(class), machine.ClassRef(OLocal(class))
		machine.RegisterNative(OFactory(class), MakeMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				return env.ConstructRef(impl, nil)
			})
		machine.RegisterNative(CFactory(class), DiscoverMethod, 0,
			func(env *vm.Env, _ vm.Value, _ []vm.Value) (vm.Value, *vm.Thrown, error) {
				return env.Call(local, SingletonGet, vm.Value{}, nil)
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
