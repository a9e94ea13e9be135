module iorchestra

go 1.24
