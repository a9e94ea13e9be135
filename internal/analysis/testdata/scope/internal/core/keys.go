// keys.go is the core side's home of the store key schema: the
// storekeys rule does not hold in it.
package core

const domainRoot = "/local/domain"
