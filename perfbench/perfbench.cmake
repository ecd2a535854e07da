# Build file of the benchmark driver. run.py configures the repository
# with -DCMAKE_PROJECT_lbp_repro_INCLUDE=<this file>, so the driver is
# built inside the repository's own CMake project: it compiles with the
# flags and links the library targets of a user's Release build, and
# the figure binaries it times are the repository's own targets.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_targets)
    add_executable(perfbench_driver ${PERFBENCH_DIR}/driver.cc)
    target_link_libraries(perfbench_driver PRIVATE lbp_serve lbp_sim)
    target_include_directories(perfbench_driver PRIVATE
                               ${PERFBENCH_DIR}/..)

    # One target for everything run.py executes: the driver plus every
    # figure, Table 3 and ablation binary under bench/.
    get_property(bench_targets DIRECTORY ${CMAKE_SOURCE_DIR}/bench
                 PROPERTY BUILDSYSTEM_TARGETS)
    list(FILTER bench_targets INCLUDE REGEX
         "^bench_(fig.*|table3_summary|ablation)$")
    add_custom_target(perfbench_all)
    add_dependencies(perfbench_all perfbench_driver ${bench_targets})
endfunction()

# Runs once the top-level CMakeLists.txt has defined every target.
cmake_language(DEFER CALL perfbench_add_targets)
