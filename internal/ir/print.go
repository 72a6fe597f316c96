package ir

import (
	"fmt"
	"io"
	"strings"
)

// PrintOptions control disassembly output.
type PrintOptions struct {
	// Code includes method bodies; otherwise only signatures are printed
	// (the "javap"-like view used when comparing against the paper's
	// figures).
	Code bool
}

// Fprint writes a textual rendering of the class to w.
func Fprint(w io.Writer, c *Class, opts PrintOptions) {
	kind := "class"
	if c.IsInterface {
		kind = "interface"
	}
	mods := ""
	if c.Abstract && !c.IsInterface {
		mods += "abstract "
	}
	if c.Final {
		mods += "final "
	}
	fmt.Fprintf(w, "%s%s %s", mods, kind, c.Name)
	if c.Super != "" && c.Super != ObjectClass {
		fmt.Fprintf(w, " extends %s", c.Super)
	}
	if len(c.Interfaces) > 0 {
		fmt.Fprintf(w, " implements %s", strings.Join(c.Interfaces, ", "))
	}
	fmt.Fprintln(w, " {")
	for _, f := range c.Fields {
		fmt.Fprintf(w, "    %s%s%s%s %s;\n",
			accessPrefix(f.Access), staticPrefix(f.Static), finalPrefix(f.Final), f.Type, f.Name)
	}
	for _, m := range c.Methods {
		printMethod(w, m, opts)
	}
	fmt.Fprintln(w, "}")
}

// Sprint returns Fprint output as a string.
func Sprint(c *Class, opts PrintOptions) string {
	var b strings.Builder
	Fprint(&b, c, opts)
	return b.String()
}

func printMethod(w io.Writer, m *Method, opts PrintOptions) {
	var params []string
	for i, p := range m.Params {
		params = append(params, fmt.Sprintf("%s a%d", p, i))
	}
	head := fmt.Sprintf("%s%s%s%s%s",
		accessPrefix(m.Access), staticPrefix(m.Static), nativePrefix(m.Native), abstractPrefix(m.Abstract), "")
	switch m.Name {
	case ConstructorName:
		fmt.Fprintf(w, "    %s<init>(%s)", head, strings.Join(params, ", "))
	case StaticInitName:
		fmt.Fprintf(w, "    %s<clinit>()", head)
	default:
		fmt.Fprintf(w, "    %s%s %s(%s)", head, m.Return, m.Name, strings.Join(params, ", "))
	}
	if !opts.Code || m.Native || m.Abstract {
		fmt.Fprintln(w, ";")
		return
	}
	fmt.Fprintln(w, " {")
	for pc, in := range m.Code {
		fmt.Fprintf(w, "        %4d: %s\n", pc, in)
	}
	for _, h := range m.Handlers {
		cc := h.CatchClass
		if cc == "" {
			cc = "<any>"
		}
		fmt.Fprintf(w, "        try [%d,%d) catch %s -> %d\n", h.Start, h.End, cc, h.Target)
	}
	fmt.Fprintln(w, "    }")
}

func accessPrefix(a Access) string {
	switch a {
	case AccessPublic:
		return "public "
	case AccessProtected:
		return "protected "
	case AccessPrivate:
		return "private "
	default:
		return ""
	}
}

func staticPrefix(s bool) string {
	if s {
		return "static "
	}
	return ""
}

func finalPrefix(f bool) string {
	if f {
		return "final "
	}
	return ""
}

func nativePrefix(n bool) string {
	if n {
		return "native "
	}
	return ""
}

func abstractPrefix(a bool) string {
	if a {
		return "abstract "
	}
	return ""
}
