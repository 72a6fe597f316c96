package ir

import "fmt"

// Rewrite rebuilds a method body.  fn appends the replacement for
// code[pc] to out — any number of instructions, none to drop it — and
// returns the extended slice.  A jump fn appends still names an old pc;
// Rewrite points it, and each handler's range and target, at the first
// instruction emitted for that pc (past a dropped one, the next emitted).
// A jump or handler naming a pc outside [0, len(code)] is an error.
func Rewrite(code []Instr, handlers []TryHandler, fn func(out []Instr, pc int, in Instr) ([]Instr, error)) ([]Instr, []TryHandler, error) {
	out := make([]Instr, 0, len(code)+8)
	newPC := make([]int, len(code)+1)
	for pc, in := range code {
		newPC[pc] = len(out)
		var err error
		if out, err = fn(out, pc, in); err != nil {
			return nil, nil, err
		}
	}
	newPC[len(code)] = len(out)
	for i := range out {
		if out[i].IsJump() {
			old := out[i].A
			if old < 0 || old > int64(len(code)) {
				return nil, nil, fmt.Errorf("jump target %d out of range", old)
			}
			out[i].A = int64(newPC[old])
		}
	}
	var outH []TryHandler
	for _, h := range handlers {
		if min(h.Start, h.End, h.Target) < 0 || max(h.Start, h.End, h.Target) > len(code) {
			return nil, nil, fmt.Errorf("handler [%d,%d) -> %d out of range", h.Start, h.End, h.Target)
		}
		h.Start, h.End, h.Target = newPC[h.Start], newPC[h.End], newPC[h.Target]
		outH = append(outH, h)
	}
	return out, outH, nil
}
