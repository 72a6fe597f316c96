// Command rafdac is the RAFDA compiler and transformer driver:
//
//	rafdac compile  -o prog.rar file.mj...         compile sources
//	rafdac analyze  [-exclude A,B] file.mj|.rar    substitutability report
//	rafdac transform [-exclude A,B] [-o out.rar] file.mj|.rar
//	rafdac disasm   [-code] [-class C] file.mj|.rar
//	rafdac run      [-main C] [-transformed] file.mj|.rar
//	rafdac verify   file.mj|.rar
//	rafdac trace    -node proto://host:port [-node ...] <hex-trace-id>
//	rafdac top      [-watch 2s] -node proto://host:port [-node ...]
//
// Inputs ending in .rar are binary class archives produced by compile or
// transform; anything else is treated as mini-Java source.  trace and
// top query running nodes over the effect-free introspection op
// (docs/OBSERVABILITY.md): trace reassembles one distributed call's
// span tree across every queried node's flight recorder, top prints
// each node's activity and overload counters plus its per-kind,
// per-op and per-tenant latency digests; -watch re-polls and redraws
// in place at the given interval.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rafda"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rafdac:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rafdac <compile|analyze|transform|disasm|run|verify|trace|top> [flags] files...")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "trace":
		return cmdTrace(rest)
	case "top":
		return cmdTop(rest)
	case "compile":
		return cmdCompile(rest)
	case "analyze":
		return cmdAnalyze(rest)
	case "transform":
		return cmdTransform(rest)
	case "disasm":
		return cmdDisasm(rest)
	case "run":
		return cmdRun(rest)
	case "verify":
		return cmdVerify(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// load reads a program from source files or one .rar archive.
func load(paths []string) (*rafda.Program, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no input files")
	}
	if strings.HasSuffix(paths[0], ".rar") {
		if len(paths) != 1 {
			return nil, fmt.Errorf("an archive must be the only input")
		}
		f, err := os.Open(paths[0])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return rafda.Decode(f)
	}
	sources := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sources[filepath.Base(p)] = string(b)
	}
	return rafda.Compile(sources)
}

func save(prog *rafda.Program, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prog.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	out := fs.String("o", "prog.rar", "output archive")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	if errs := prog.Verify(); len(errs) > 0 {
		return fmt.Errorf("verification failed: %v", errs[0])
	}
	if err := save(prog, *out); err != nil {
		return err
	}
	fmt.Printf("compiled %d classes -> %s\n", len(prog.Classes()), *out)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	exclude := fs.String("exclude", "", "comma-separated classes to exclude by policy")
	verbose := fs.Bool("v", false, "per-class verdicts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	var ex []string
	if *exclude != "" {
		ex = strings.Split(*exclude, ",")
	}
	a := prog.Analyze(ex...)
	fmt.Print(a.Report())
	if *verbose {
		for _, c := range prog.Classes() {
			fmt.Printf("  %-40s %s\n", c, a.Why(c))
		}
	}
	return nil
}

func cmdTransform(args []string) error {
	fs := flag.NewFlagSet("transform", flag.ContinueOnError)
	out := fs.String("o", "prog.transformed.rar", "output archive")
	exclude := fs.String("exclude", "", "comma-separated classes to exclude")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	var opts []rafda.TransformOption
	if *exclude != "" {
		opts = append(opts, rafda.WithExclude(strings.Split(*exclude, ",")...))
	}
	tr, err := prog.Transform(opts...)
	if err != nil {
		return err
	}
	tp := tr.Program()
	if errs := tp.Verify(); len(errs) > 0 {
		return fmt.Errorf("transformed program fails verification: %v", errs[0])
	}
	if err := save(tp, *out); err != nil {
		return err
	}
	fmt.Printf("transformed %d classes (of %d) -> %s (%d classes total)\n",
		len(tr.TransformedClasses()), len(prog.Classes()), *out, len(tp.Classes()))
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	withCode := fs.Bool("code", false, "include method bodies")
	class := fs.String("class", "", "single class to print (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	if *class != "" {
		txt, err := prog.Disassemble(*class, *withCode)
		if err != nil {
			return err
		}
		fmt.Print(txt)
		return nil
	}
	for _, c := range prog.Classes() {
		txt, err := prog.Disassemble(c, *withCode)
		if err != nil {
			return err
		}
		fmt.Println(txt)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	mainClass := fs.String("main", "Main", "entry class")
	transformed := fs.Bool("transformed", false, "transform first, then run locally")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	if *transformed {
		tr, err := prog.Transform()
		if err != nil {
			return err
		}
		return tr.RunLocal(*mainClass, os.Stdout)
	}
	return prog.Run(*mainClass, os.Stdout)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	prog, err := load(fs.Args())
	if err != nil {
		return err
	}
	errs := prog.Verify()
	for _, e := range errs {
		fmt.Println(e)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d verification error(s)", len(errs))
	}
	fmt.Printf("ok: %d classes verify\n", len(prog.Classes()))
	return nil
}
