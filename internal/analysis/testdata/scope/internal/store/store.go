// Package store owns the key schema: the storekeys rule does not hold
// here.
package store

const Root = "/local/domain"
