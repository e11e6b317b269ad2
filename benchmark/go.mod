module concord/benchmark

go 1.22

require concord v0.0.0

replace concord => ../
