# Figure/table-regenerating report binaries (one per paper artifact) plus
# google-benchmark microbenchmarks of the tensor runtime.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains nothing but runnable binaries:
#   for b in build/bench/*; do $b; done
function(stenso_add_report NAME)
  add_executable(${NAME} ${CMAKE_SOURCE_DIR}/bench/${NAME}.cpp)
  target_link_libraries(${NAME} PRIVATE stenso_evalsuite)
  set_target_properties(${NAME} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

stenso_add_report(bench_tables)
stenso_add_report(bench_fig4_speedups)
stenso_add_report(bench_fig5_synthesis_time)
stenso_add_report(bench_fig6_classes)
stenso_add_report(bench_fig7_class_speedups)
stenso_add_report(bench_fig8_detailed)
stenso_add_report(bench_ablation_depth)
stenso_add_report(bench_ablation_costmodel)
stenso_add_report(bench_ablation_backend)
stenso_add_report(bench_parallel_scaling)
stenso_add_report(bench_analysis_pruning)
stenso_add_report(bench_egraph_vs_synthesis)
target_link_libraries(bench_egraph_vs_synthesis PRIVATE stenso_egraph)
stenso_add_report(bench_observe_overhead)
stenso_add_report(bench_report)
stenso_add_report(bench_persist)
target_link_libraries(bench_persist PRIVATE stenso_persist)
stenso_add_report(bench_fuzz_coverage)
target_link_libraries(bench_fuzz_coverage PRIVATE stenso_fuzz)
target_compile_definitions(bench_fuzz_coverage PRIVATE
  STENSO_FUZZ_CORPUS_DIR="${CMAKE_SOURCE_DIR}/tests/fuzz_corpus")

add_executable(bench_microops ${CMAKE_SOURCE_DIR}/bench/bench_microops.cpp)
set_target_properties(bench_microops PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(bench_microops PRIVATE stenso_tensor benchmark::benchmark
                      Threads::Threads)