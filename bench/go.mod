module rafda/bench

go 1.24

require rafda v0.0.0

replace rafda => ../
