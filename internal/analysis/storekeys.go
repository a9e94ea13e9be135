package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// storeKeys flags raw "/local/domain/..." and "/cluster/..." path
// literals. The store key schema (docs/STORE_KEYS.md) is owned by two
// places — internal/store's path helpers (store.Root, store.DomainPath,
// store.DiskPath, and the /cluster constructors in store's keys.go) and
// the typed key constructors in internal/core/keys.go. A hand-rolled
// path literal anywhere else bypasses both, so a schema change (or a
// typo) silently produces keys nothing watches. internal/analysis quotes
// the path in rule text without ever building keys from it.
var storeKeys = &rule{
	name: "storekeys",
	inScope: func(s *source) bool {
		return s.pkg != "iorchestra/internal/store" &&
			s.pkg != "iorchestra/internal/analysis" &&
			!(s.pkg == "iorchestra/internal/core" && s.name == "keys.go")
	},
	check: func(s *source, report func(token.Pos, string, ...any)) {
		ast.Inspect(s.file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if strings.Contains(lit.Value, "/local/domain") ||
				strings.Contains(lit.Value, "/cluster/") ||
				lit.Value == `"/cluster"` {
				report(lit.Pos(),
					"raw store path literal %s; build it with store.Root/DomainPath/DiskPath or the internal/core/keys.go constructors (docs/STORE_KEYS.md)",
					lit.Value)
			}
			return true
		})
	},
}
