module github.com/adm-project/adm/benchmark

go 1.22

require github.com/adm-project/adm v0.0.0

replace github.com/adm-project/adm => ../
