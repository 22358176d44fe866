module ldpids/bench

go 1.21

require ldpids v0.0.0

replace ldpids => ../
