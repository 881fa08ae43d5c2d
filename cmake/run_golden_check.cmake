# Byte-identity gate for opass_cli artifacts, run as ctest entries (see
# opass_golden_test in examples/CMakeLists.txt). Invoked in script mode:
#
#   cmake -DCLI=<opass_cli> -DOUT_DIR=<scratch-dir>
#         -DARGS=<arg>,<arg>,...            # common to every run
#         -DRUNS=<label>[:<arg>],...         # one run per label, first = reference
#         -DARTIFACTS=<flag>=<stem>.<ext>,...
#         [-DCOMPARE_STDOUT=ON]
#         -P cmake/run_golden_check.cmake
#
# Runs the CLI once per label with the common arguments, the label's own
# extra argument (e.g. --threads=4) and one output path per artifact,
# `--<flag>=<OUT_DIR>/<stem>_<label>.<ext>`. Every artifact of every later
# run must be byte-identical to the reference run's, and so must stdout when
# COMPARE_STDOUT is set. The gated contracts: a replay of one seed writes the
# same bytes (no map-order, padding or locale drift), and worker-pool lanes
# change wall clock, never an output byte (DESIGN.md §12, §13).
#
# Rejection mode, for usage-error gates (opass_rejects in the same file):
#
#   cmake -DCLI=<tool> -DARGS=<arg>,... -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex>
#         -P cmake/run_golden_check.cmake
#
# runs the tool once and requires exactly that exit code (so a crash or a
# silent success fails) and stdout+stderr matching the regex.
if(DEFINED EXPECT_EXIT)
  string(REPLACE "," ";" args "${ARGS}")
  execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT rc STREQUAL "${EXPECT_EXIT}" OR NOT output MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "${CLI} ${args}: exit code '${rc}', want ${EXPECT_EXIT} with "
                        "output matching '${EXPECT_OUTPUT}'; output:\n${output}")
  endif()
  message(STATUS "exit ${rc}: ${output}")
  return()
endif()

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR OR NOT DEFINED RUNS OR NOT DEFINED ARTIFACTS)
  message(FATAL_ERROR "usage: cmake -DCLI=<opass_cli> -DOUT_DIR=<dir> -DARGS=<a,b> "
                      "-DRUNS=<label[:arg],...> -DARTIFACTS=<flag=stem.ext,...> "
                      "[-DCOMPARE_STDOUT=ON] -P run_golden_check.cmake")
endif()

string(REPLACE "," ";" args "${ARGS}")
string(REPLACE "," ";" runs "${RUNS}")
string(REPLACE "," ";" artifacts "${ARTIFACTS}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(labels)
foreach(run IN LISTS runs)
  string(FIND "${run}" ":" colon)
  set(extra)
  if(colon EQUAL -1)
    set(label "${run}")
  else()
    string(SUBSTRING "${run}" 0 ${colon} label)
    math(EXPR after "${colon} + 1")
    string(SUBSTRING "${run}" ${after} -1 extra)
  endif()
  list(APPEND labels "${label}")

  set(outputs)
  foreach(artifact IN LISTS artifacts)
    string(REGEX MATCH "^([^=]+)=(.+)\\.([^.]+)$" _ "${artifact}")
    list(APPEND outputs "--${CMAKE_MATCH_1}=${OUT_DIR}/${CMAKE_MATCH_2}_${label}.${CMAKE_MATCH_3}")
  endforeach()
  if(COMPARE_STDOUT)
    set(stdout_sink OUTPUT_FILE "${OUT_DIR}/stdout_${label}.txt")
  else()
    set(stdout_sink OUTPUT_QUIET)
  endif()
  execute_process(
    COMMAND "${CLI}" ${args} ${extra} ${outputs}
    RESULT_VARIABLE rc
    ${stdout_sink})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "opass_cli run '${label}' failed with exit code ${rc}")
  endif()
endforeach()

set(files)
foreach(artifact IN LISTS artifacts)
  string(REGEX MATCH "^[^=]+=(.+)$" _ "${artifact}")
  list(APPEND files "${CMAKE_MATCH_1}")
endforeach()
if(COMPARE_STDOUT)
  list(APPEND files "stdout.txt")
endif()

list(GET labels 0 reference)
list(SUBLIST labels 1 -1 others)
foreach(file IN LISTS files)
  string(REGEX MATCH "^(.+)\\.([^.]+)$" _ "${file}")
  set(stem "${CMAKE_MATCH_1}")
  set(ext "${CMAKE_MATCH_2}")
  foreach(label IN LISTS others)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${OUT_DIR}/${stem}_${reference}.${ext}" "${OUT_DIR}/${stem}_${label}.${ext}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "${stem} differs between runs '${reference}' and '${label}' — "
                          "the output is not byte-deterministic")
    endif()
  endforeach()
endforeach()

message(STATUS "${files} byte-identical across runs ${labels}")
