# Checks that every label a suite declares in tests/CMakeLists.txt
# (`dsml_test(<suite> LABELS l1 l2 ...)`) reaches every test ctest
# discovered from that suite, so `ctest -L tsan` and `ctest -L fault` run
# what the declarations say.
#
#   cmake -DCTEST=<ctest> -DBUILD_DIR=<tests build dir>
#         -DDECLARATIONS=<tests/CMakeLists.txt> -P check_labels.cmake
#
# It counts the tests per suite executable in `ctest -N --show-only=json-v1`,
# once over all tests and once per label (`-L ^label$`), and fails when a
# declared label's count falls short of the suite's total.
cmake_minimum_required(VERSION 3.16)

foreach(var CTEST BUILD_DIR DECLARATIONS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_labels: -D${var}=... is required")
  endif()
endforeach()

# Sets count_<suite> (in the caller's scope) to the number of listed tests
# whose command runs <suite>, for `ctest -N` with the extra arguments ARGN.
macro(count_tests_per_suite)
  execute_process(COMMAND "${CTEST}" -N --show-only=json-v1 ${ARGN}
    WORKING_DIRECTORY "${BUILD_DIR}"
    OUTPUT_VARIABLE json RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_labels: ctest -N ${ARGN} failed (${rc})")
  endif()
  # The first element of each test's "command" array is its executable.
  # Brackets become parentheses first: CMake does not split a list at a
  # `;` inside unbalanced square brackets.
  string(REPLACE "[" "(" json "${json}")
  string(REPLACE "]" ")" json "${json}")
  string(REGEX MATCHALL
    "\"command\"[ \t\r\n]*:[ \t\r\n]*\\([ \t\r\n]*\"[^\"]*\""
    commands "${json}")
  foreach(suite IN LISTS suites)
    set(count_${suite} 0)
  endforeach()
  foreach(command IN LISTS commands)
    string(REGEX REPLACE ".*[/\\\\]([^/\\\\\"]+)\"$" "\\1" exe "${command}")
    string(REGEX REPLACE "\\.exe$" "" exe "${exe}")
    if(DEFINED count_${exe})
      math(EXPR count_${exe} "${count_${exe}} + 1")
    endif()
  endforeach()
endmacro()

file(READ "${DECLARATIONS}" text)
string(REGEX MATCHALL "dsml_test\\([A-Za-z0-9_]+[ \t\r\n]+LABELS[^)]*\\)"
  declared "${text}")
set(suites "")
set(all_labels "")
foreach(declaration IN LISTS declared)
  string(REGEX REPLACE "^dsml_test\\(([A-Za-z0-9_]+).*" "\\1" suite
    "${declaration}")
  string(REGEX REPLACE ".*LABELS([^)]*)\\)$" "\\1" labels "${declaration}")
  separate_arguments(labels UNIX_COMMAND "${labels}")
  list(APPEND suites ${suite})
  set(labels_${suite} ${labels})
  list(APPEND all_labels ${labels})
endforeach()
list(REMOVE_DUPLICATES all_labels)
if(NOT suites)
  message(FATAL_ERROR "check_labels: no dsml_test(... LABELS ...) found in "
    "${DECLARATIONS}")
endif()

count_tests_per_suite()
foreach(suite IN LISTS suites)
  set(total_${suite} ${count_${suite}})
  if(total_${suite} EQUAL 0)
    message(SEND_ERROR "check_labels: ctest lists no test of ${suite}")
  endif()
endforeach()

set(checked 0)
foreach(label IN LISTS all_labels)
  count_tests_per_suite(-L "^${label}$")
  foreach(suite IN LISTS suites)
    if(NOT label IN_LIST labels_${suite})
      continue()
    endif()
    if(NOT count_${suite} EQUAL total_${suite})
      message(SEND_ERROR "check_labels: ${suite} declares LABELS "
        "${labels_${suite}}, but only ${count_${suite}} of its "
        "${total_${suite}} tests carry the label ${label}")
    endif()
    math(EXPR checked "${checked} + ${count_${suite}}")
  endforeach()
endforeach()
message(STATUS "check_labels: ${checked} (test, label) pairs over "
  "${suites}")
