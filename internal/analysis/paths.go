package analysis

import "go/ast"

// ScanPaths is the path-sensitive statement scan lockcheck and chancheck
// share. It walks stmts in order and hands every statement that is not
// control flow to leaf, with the state of its syntactic path. Branch
// bodies (if/else, loop bodies, switch and select cases) get a clone of
// the state and are assumed not to change it for the fall-through path,
// which keeps its own: conservative on both sides, so a branch that
// releases suppresses nothing after it and a branch that acquires flags
// nothing after it. An if statement's init and a select case's send run
// on the enclosing path.
func ScanPaths[S interface{ Clone() S }](stmts []ast.Stmt, st S, leaf func(s ast.Stmt, st S)) {
	for _, s := range stmts {
		scanPath(s, st, leaf)
	}
}

func scanPath[S interface{ Clone() S }](s ast.Stmt, st S, leaf func(ast.Stmt, S)) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		ScanPaths(s.List, st, leaf)
	case *ast.IfStmt:
		if s.Init != nil {
			scanPath(s.Init, st, leaf)
		}
		ScanPaths(s.Body.List, st.Clone(), leaf)
		if s.Else != nil {
			scanPath(s.Else, st.Clone(), leaf)
		}
	case *ast.ForStmt:
		ScanPaths(s.Body.List, st.Clone(), leaf)
	case *ast.RangeStmt:
		ScanPaths(s.Body.List, st.Clone(), leaf)
	case *ast.SwitchStmt:
		scanCases(s.Body, st, leaf)
	case *ast.TypeSwitchStmt:
		scanCases(s.Body, st, leaf)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				leaf(send, st)
			}
			ScanPaths(cc.Body, st.Clone(), leaf)
		}
	case *ast.LabeledStmt:
		scanPath(s.Stmt, st, leaf)
	default:
		leaf(s, st)
	}
}

func scanCases[S interface{ Clone() S }](body *ast.BlockStmt, st S, leaf func(ast.Stmt, S)) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			ScanPaths(cc.Body, st.Clone(), leaf)
		}
	}
}
