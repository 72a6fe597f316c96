package ir

import "fmt"

// Op enumerates the instruction opcodes of the stack machine.
type Op uint8

// Opcodes.  Numeric values are part of the binary encoding; append only.
const (
	OpInvalid Op = iota

	// Constants and locals.
	OpConstInt    // push I
	OpConstFloat  // push F
	OpConstString // push Str
	OpConstBool   // push I != 0
	OpConstNull   // push null reference (typed by TypeRef)
	OpLoad        // push local slot A
	OpStore       // pop into local slot A

	// Stack manipulation.
	OpDup
	OpPop
	OpSwap

	// Object and field access.  Owner names the declaring class, Member the
	// field; TypeRef carries the field type where needed by the verifier.
	OpNew       // push new instance of Owner (fields zeroed, ctor NOT run)
	OpGetField  // pop ref, push ref.Member
	OpPutField  // pop value, pop ref, ref.Member = value
	OpGetStatic // push Owner.Member
	OpPutStatic // pop value, Owner.Member = value

	// Invocation.  Owner.Member with NArgs arguments (not counting the
	// receiver for instance invokes).  Stack: recv?, a1..aN -> result?.
	OpInvokeVirtual   // dynamic dispatch on receiver class
	OpInvokeInterface // dynamic dispatch via interface
	OpInvokeStatic    // static dispatch on Owner
	OpInvokeSpecial   // exact dispatch on Owner (constructors, super calls)

	// Arrays.
	OpNewArray // pop length, push new array with element type *TypeRef
	OpALoad    // pop index, pop array, push element
	OpAStore   // pop value, pop index, pop array, store
	OpArrayLen // pop array, push length

	// Arithmetic and logic (operate on the top one/two stack values).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpNot    // boolean not
	OpConcat // string concatenation

	// Comparison: pop b, pop a, push bool.
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe

	// Control flow.  A is the absolute target pc.
	OpJump
	OpJumpIf    // pop cond, jump when true
	OpJumpIfNot // pop cond, jump when false

	// Typing.
	OpCast       // pop ref, checkcast to *TypeRef, push
	OpInstanceOf // pop ref, push bool

	// Method exit and exceptions.
	OpReturn      // return void
	OpReturnValue // pop value, return it
	OpThrow       // pop throwable ref

	opMax // sentinel; keep last
)

var opNames = map[Op]string{
	OpConstInt:        "const.i",
	OpConstFloat:      "const.f",
	OpConstString:     "const.s",
	OpConstBool:       "const.b",
	OpConstNull:       "const.null",
	OpLoad:            "load",
	OpStore:           "store",
	OpDup:             "dup",
	OpPop:             "pop",
	OpSwap:            "swap",
	OpNew:             "new",
	OpGetField:        "getfield",
	OpPutField:        "putfield",
	OpGetStatic:       "getstatic",
	OpPutStatic:       "putstatic",
	OpInvokeVirtual:   "invokevirtual",
	OpInvokeInterface: "invokeinterface",
	OpInvokeStatic:    "invokestatic",
	OpInvokeSpecial:   "invokespecial",
	OpNewArray:        "newarray",
	OpALoad:           "aload",
	OpAStore:          "astore",
	OpArrayLen:        "arraylen",
	OpAdd:             "add",
	OpSub:             "sub",
	OpMul:             "mul",
	OpDiv:             "div",
	OpRem:             "rem",
	OpNeg:             "neg",
	OpNot:             "not",
	OpConcat:          "concat",
	OpCmpEq:           "cmp.eq",
	OpCmpNe:           "cmp.ne",
	OpCmpLt:           "cmp.lt",
	OpCmpLe:           "cmp.le",
	OpCmpGt:           "cmp.gt",
	OpCmpGe:           "cmp.ge",
	OpJump:            "jump",
	OpJumpIf:          "jump.if",
	OpJumpIfNot:       "jump.ifnot",
	OpCast:            "cast",
	OpInstanceOf:      "instanceof",
	OpReturn:          "return",
	OpReturnValue:     "return.v",
	OpThrow:           "throw",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < opMax }

// Instr is a single instruction.  Operand usage depends on Op; unused
// operands are zero.
type Instr struct {
	Op      Op
	A       int64 // local slot, jump target pc, or bool const
	F       float64
	Str     string // string constant
	Owner   string // declaring class for field/method/new ops
	Member  string // field or method name
	NArgs   int    // argument count for invokes
	TypeRef *Type  // type operand for new/newarray/cast/instanceof/const.null
}

// IsJump reports whether the instruction transfers control to Instr.A.
func (in Instr) IsJump() bool {
	switch in.Op {
	case OpJump, OpJumpIf, OpJumpIfNot:
		return true
	}
	return false
}

// String renders the instruction in assembly-like notation.
func (in Instr) String() string {
	switch in.Op {
	case OpConstInt:
		return fmt.Sprintf("const.i %d", in.A)
	case OpConstBool:
		return fmt.Sprintf("const.b %v", in.A != 0)
	case OpConstFloat:
		return fmt.Sprintf("const.f %g", in.F)
	case OpConstString:
		return fmt.Sprintf("const.s %q", in.Str)
	case OpConstNull:
		if in.TypeRef != nil {
			return fmt.Sprintf("const.null %s", in.TypeRef)
		}
		return "const.null"
	case OpLoad, OpStore:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	case OpNew:
		return fmt.Sprintf("new %s", in.Owner)
	case OpGetField, OpPutField, OpGetStatic, OpPutStatic:
		return fmt.Sprintf("%s %s.%s", in.Op, in.Owner, in.Member)
	case OpInvokeVirtual, OpInvokeInterface, OpInvokeStatic, OpInvokeSpecial:
		return fmt.Sprintf("%s %s.%s/%d", in.Op, in.Owner, in.Member, in.NArgs)
	case OpNewArray, OpCast, OpInstanceOf:
		return fmt.Sprintf("%s %s", in.Op, in.TypeRef)
	case OpJump, OpJumpIf, OpJumpIfNot:
		return fmt.Sprintf("%s @%d", in.Op, in.A)
	default:
		return in.Op.String()
	}
}
