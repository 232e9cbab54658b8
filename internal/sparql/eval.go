package sparql

import (
	"fmt"
	"strings"

	"kglids/internal/rdf"
)

// binder supplies variable values to FILTER evaluation. The compiled
// ID-space engine implements it with a slot row that decodes terms lazily
// (see slotEnv in idexec.go); the test-only reference evaluator with a
// Binding.
type binder interface {
	value(name string) (rdf.Term, bool)
}

// evalExpr evaluates a FILTER expression under a binding. Type errors make
// the enclosing FILTER exclude the row (SPARQL error semantics).
func evalExpr(e Expr, b binder) (rdf.Term, error) {
	switch x := e.(type) {
	case *LitExpr:
		return x.Term, nil
	case *VarExpr:
		t, ok := b.value(x.Name)
		if !ok {
			return rdf.Term{}, fmt.Errorf("unbound variable ?%s", x.Name)
		}
		return t, nil
	case *UnaryExpr:
		v, err := evalExpr(x.X, b)
		if err != nil {
			return rdf.Term{}, err
		}
		switch x.Op {
		case "!":
			return rdf.Bool(!truthy(v)), nil
		case "-":
			f, ok := v.AsFloat()
			if !ok {
				return rdf.Term{}, fmt.Errorf("negating non-numeric %v", v)
			}
			return rdf.Float(-f), nil
		}
		return rdf.Term{}, fmt.Errorf("unknown unary op %q", x.Op)
	case *BinaryExpr:
		return evalBinary(x, b)
	case *CallExpr:
		return evalCall(x, b)
	}
	return rdf.Term{}, fmt.Errorf("unknown expression %T", e)
}

func evalBinary(x *BinaryExpr, b binder) (rdf.Term, error) {
	switch x.Op {
	case "&&":
		l, err := evalExpr(x.Left, b)
		if err != nil || !truthy(l) {
			return rdf.Bool(false), nil
		}
		r, err := evalExpr(x.Right, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Bool(truthy(r)), nil
	case "||":
		l, err := evalExpr(x.Left, b)
		if err == nil && truthy(l) {
			return rdf.Bool(true), nil
		}
		r, err := evalExpr(x.Right, b)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Bool(truthy(r)), nil
	}
	l, err := evalExpr(x.Left, b)
	if err != nil {
		return rdf.Term{}, err
	}
	r, err := evalExpr(x.Right, b)
	if err != nil {
		return rdf.Term{}, err
	}
	switch x.Op {
	case "+", "-", "*", "/":
		fl, okl := l.AsFloat()
		fr, okr := r.AsFloat()
		if !okl || !okr {
			return rdf.Term{}, fmt.Errorf("arithmetic on non-numeric")
		}
		switch x.Op {
		case "+":
			return rdf.Float(fl + fr), nil
		case "-":
			return rdf.Float(fl - fr), nil
		case "*":
			return rdf.Float(fl * fr), nil
		default:
			if fr == 0 {
				return rdf.Term{}, fmt.Errorf("division by zero")
			}
			return rdf.Float(fl / fr), nil
		}
	case "=", "!=":
		eq := termEquals(l, r)
		if x.Op == "!=" {
			eq = !eq
		}
		return rdf.Bool(eq), nil
	case "<", "<=", ">", ">=":
		c := compareTerms(l, r)
		var v bool
		switch x.Op {
		case "<":
			v = c < 0
		case "<=":
			v = c <= 0
		case ">":
			v = c > 0
		case ">=":
			v = c >= 0
		}
		return rdf.Bool(v), nil
	}
	return rdf.Term{}, fmt.Errorf("unknown binary op %q", x.Op)
}

func evalCall(x *CallExpr, b binder) (rdf.Term, error) {
	if x.Fn == "BOUND" {
		v, ok := x.Args[0].(*VarExpr)
		if !ok {
			return rdf.Term{}, fmt.Errorf("BOUND expects a variable")
		}
		_, bound := b.value(v.Name)
		return rdf.Bool(bound), nil
	}
	args := make([]rdf.Term, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(a, b)
		if err != nil {
			return rdf.Term{}, err
		}
		args[i] = v
	}
	str := func(i int) string {
		if args[i].Kind == rdf.KindIRI {
			return args[i].Value
		}
		return args[i].Value
	}
	switch x.Fn {
	case "STR":
		return rdf.String(str(0)), nil
	case "LCASE":
		return rdf.String(strings.ToLower(str(0))), nil
	case "UCASE":
		return rdf.String(strings.ToUpper(str(0))), nil
	case "CONTAINS":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("CONTAINS expects 2 args")
		}
		return rdf.Bool(strings.Contains(str(0), str(1))), nil
	case "STRSTARTS":
		if len(args) != 2 {
			return rdf.Term{}, fmt.Errorf("STRSTARTS expects 2 args")
		}
		return rdf.Bool(strings.HasPrefix(str(0), str(1))), nil
	case "REGEX":
		if len(args) < 2 {
			return rdf.Term{}, fmt.Errorf("REGEX expects 2+ args")
		}
		pat := str(1)
		if len(args) == 3 && strings.Contains(str(2), "i") {
			pat = "(?i)" + pat
		}
		re, err := compileRegex(pat)
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.Bool(re.MatchString(str(0))), nil
	}
	return rdf.Term{}, fmt.Errorf("unknown function %q", x.Fn)
}

// termEquals implements SPARQL value equality: numeric comparison when both
// sides are numeric, otherwise term equality.
func termEquals(a, b rdf.Term) bool {
	fa, oka := a.AsFloat()
	fb, okb := b.AsFloat()
	if oka && okb {
		return fa == fb
	}
	if a.Kind != b.Kind {
		return false
	}
	return a.Value == b.Value
}

// truthy implements SPARQL effective boolean value.
func truthy(t rdf.Term) bool {
	if t.Kind != rdf.KindLiteral {
		return t.Value != ""
	}
	if t.Value == "true" {
		return true
	}
	if t.Value == "false" || t.Value == "" {
		return false
	}
	if f, ok := t.AsFloat(); ok {
		return f != 0
	}
	return true
}
