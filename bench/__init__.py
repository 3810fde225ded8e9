"""Run-level benchmark for the SuperOffload reproduction.

Seven named workloads, each run in a fresh child process: once untraced
for the end-to-end metrics and once traced for the per-layer roll-up.
See ``bench/README.md`` for the glossary and how to run and compare.

Importing this package (or its ``__main__``) never imports ``repro``:
only ``bench.child`` does, after its set-up clock has started.
"""
