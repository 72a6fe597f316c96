package ir

import "fmt"

// Rewrite rebuilds a method body.  fn appends the replacement for
// code[pc] to out — any number of instructions, none to drop it — and
// returns the extended slice.  A jump fn appends still names an old pc;
// Rewrite points it, and each handler's range and target, at the first
// instruction emitted for that pc (past a dropped one, the next emitted).
// A jump or handler naming a pc outside [0, len(code)] is an error.
func Rewrite(code []Instr, handlers []TryHandler, fn func(out []Instr, pc int, in Instr) ([]Instr, error)) ([]Instr, []TryHandler, error) {
	var r Rewriter
	return r.Rewrite(code, handlers, fn)
}

// Rewriter is Rewrite with working memory: it builds each body in an
// output buffer and pc map that it keeps for the next, so rewriting many
// bodies in turn allocates, per body, only the body and handler table it
// returns, each exactly as long as its contents.  The zero Rewriter is
// ready to use; one Rewriter must not be used concurrently.
type Rewriter struct {
	out   []Instr
	newPC []int
}

// Rewrite rebuilds one body, as the package-level Rewrite does.
func (r *Rewriter) Rewrite(code []Instr, handlers []TryHandler, fn func(out []Instr, pc int, in Instr) ([]Instr, error)) ([]Instr, []TryHandler, error) {
	if cap(r.newPC) <= len(code) {
		r.newPC = make([]int, len(code)+1)
	}
	newPC := r.newPC[:len(code)+1]
	out := r.out[:0]
	for pc, in := range code {
		newPC[pc] = len(out)
		var err error
		if out, err = fn(out, pc, in); err != nil {
			r.out = out
			return nil, nil, err
		}
	}
	r.out = out
	newPC[len(code)] = len(out)
	body := make([]Instr, len(out))
	copy(body, out)
	for i := range body {
		if body[i].IsJump() {
			old := body[i].A
			if old < 0 || old > int64(len(code)) {
				return nil, nil, fmt.Errorf("jump target %d out of range", old)
			}
			body[i].A = int64(newPC[old])
		}
	}
	var outH []TryHandler
	if len(handlers) > 0 {
		outH = make([]TryHandler, len(handlers))
	}
	for i, h := range handlers {
		if min(h.Start, h.End, h.Target) < 0 || max(h.Start, h.End, h.Target) > len(code) {
			return nil, nil, fmt.Errorf("handler [%d,%d) -> %d out of range", h.Start, h.End, h.Target)
		}
		h.Start, h.End, h.Target = newPC[h.Start], newPC[h.End], newPC[h.Target]
		outH[i] = h
	}
	return body, outH, nil
}
